"""Structural checks on the CLI's outputs.

Each check reads an output file with the stdlib only, independently of
the package's own readers, and returns a list of problems; an empty list
means the output passed.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

THRESHOLD = 0.25  # the CLI's default duplicate threshold, which the workloads use
DUPES_HEADER = ["id_a", "id_b", "score", "offset_frames"]
LABELS_HEADER = ["id", "label", "own_score", "diagonal", "best_other_label",
                 "best_other_score", "delta", "rule"]
RULES = ("low_own", "high_other", "none")


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _csv_rows(path):
    with Path(path).open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def read_dupe_pairs(path) -> list[tuple[str, str, float]]:
    rows = _csv_rows(path)
    return [(r[0], r[1], float(r[2])) for r in rows[1:]]


def check_dupes(path, ids, threshold) -> list[str]:
    """Header, known ids, ordered unique pairs, scores in [0, 1] above threshold."""
    try:
        rows = _csv_rows(path)
    except (OSError, UnicodeDecodeError) as exc:
        return [f"dupes: unreadable: {exc}"]
    if not rows or rows[0] != DUPES_HEADER:
        return ["dupes: bad header"]
    known, seen, problems = set(ids), set(), []
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != 4:
            problems.append(f"dupes:{n}: {len(row)} fields")
            continue
        a, b, score, offset = row
        try:
            s = float(score)
            int(offset)
        except ValueError:
            problems.append(f"dupes:{n}: non-numeric score or offset")
            continue
        if a not in known or b not in known or not a < b:
            problems.append(f"dupes:{n}: bad pair {a},{b}")
        if not (0.0 <= s <= 1.0) or s < threshold:
            problems.append(f"dupes:{n}: score {s} outside [{threshold}, 1]")
        if (a, b) in seen:
            problems.append(f"dupes:{n}: repeated pair")
        seen.add((a, b))
    return problems


def check_features(path, ids, n_windows, dims) -> list[str]:
    """One row per (excerpt, window), finite values, every excerpt present."""
    try:
        rows = _csv_rows(path)
    except (OSError, UnicodeDecodeError) as exc:
        return [f"features: unreadable: {exc}"]
    if not rows or rows[0][:2] != ["id", "window_index"] or len(rows[0]) != 2 + dims:
        return ["features: bad header"]
    windows = {}
    for n, row in enumerate(rows[1:], start=2):
        try:
            values = [float(v) for v in row[2:]]
            w = int(row[1])
        except (ValueError, IndexError):
            return [f"features:{n}: malformed row"]
        if len(values) != dims or not all(math.isfinite(v) for v in values):
            return [f"features:{n}: bad values"]
        windows.setdefault(row[0], []).append(w)
    if sorted(windows) != sorted(ids):
        return ["features: excerpt set differs from the metadata"]
    bad = [eid for eid, ws in windows.items() if ws != list(range(n_windows))]
    return [f"features: wrong windows for {bad[:3]}"] if bad else []


def check_nonempty(path, what) -> list[str]:
    p = Path(path)
    return [] if p.is_file() and p.stat().st_size > 0 else [f"{what}: missing or empty"]


def check_labels(path, tagged_ids, labels) -> list[str]:
    """One verdict row per tagged excerpt, known labels and rules."""
    try:
        rows = _csv_rows(path)
    except (OSError, UnicodeDecodeError) as exc:
        return [f"labels: unreadable: {exc}"]
    if not rows or rows[0] != LABELS_HEADER:
        return ["labels: bad header"]
    body = rows[1:]
    problems = []
    if sorted(r[0] for r in body) != sorted(tagged_ids):
        problems.append("labels: verdict set differs from the tagged excerpts")
    for n, row in enumerate(body, start=2):
        if len(row) != len(LABELS_HEADER) or row[1] not in labels or row[7] not in RULES:
            problems.append(f"labels:{n}: malformed verdict")
    return problems


def flagged_ids(path) -> set[str]:
    return {r[0] for r in _csv_rows(path)[1:] if r[7] != "none"}


def _load_json(path, what):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8")), []
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        return None, [f"{what}: unreadable: {exc}"]


def check_catalog(path, ids, expected_exclusions) -> list[str]:
    """The catalog's exact groups and distortions imply the planted exclusions."""
    data, problems = _load_json(path, "catalog")
    if problems:
        return problems
    try:
        excluded = set()
        for g in data["repetitions"]:
            if g["kind"] in ("exact", "recording"):
                excluded.update(sorted(g["members"])[1:])
        for d in data["distortions"]:
            prefix = d["usable_prefix_seconds"]
            if prefix is not None and prefix < 5.0:
                excluded.add(d["id"])
        members = {m for g in data["repetitions"] for m in g["members"]}
    except (KeyError, TypeError):
        return ["catalog: missing fields"]
    if not members <= set(ids):
        problems.append("catalog: unknown excerpt in a repetition group")
    if excluded != expected_exclusions:
        problems.append(f"catalog: {len(excluded)} exclusions, "
                        f"expected {len(expected_exclusions)}")
    return problems


def check_eval_report(path, scheme, ids, labels, artist, exclusions) -> list[str]:
    """Each included excerpt predicted exactly once per realization.

    ``st`` includes every excerpt and ``st-prime`` exactly those the
    catalog does not exclude; ``af`` folds share no artist.
    """
    report, problems = _load_json(path, "report")
    if problems:
        return problems
    expected = set(ids) - exclusions if scheme == "st-prime" else set(ids)
    try:
        if report["scheme"] != scheme or not 0.0 <= report["accuracy_mean"] <= 1.0:
            problems.append(f"report {scheme}: bad header")
        for r, realization in enumerate(report["realizations"]):
            preds = realization["predictions"]
            predicted = [p["id"] for p in preds]
            if len(predicted) != len(set(predicted)) or set(predicted) != expected:
                problems.append(f"report {scheme}: realization {r} does not predict "
                                f"each included excerpt exactly once")
            if any(p["predicted"] not in labels for p in preds):
                problems.append(f"report {scheme}: unknown predicted label")
            if scheme == "af":
                fold_artists = {}
                for p in preds:
                    if artist.get(p["id"]):
                        fold_artists.setdefault(p["fold"], set()).add(artist[p["id"]])
                folds = list(fold_artists.values())
                if any(folds[i] & folds[j] for i in range(len(folds))
                       for j in range(i + 1, len(folds))):
                    problems.append(f"report af: realization {r} folds share an artist")
    except (KeyError, TypeError):
        problems.append(f"report {scheme}: missing fields")
    return problems


def count_predictions(path) -> int:
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    return sum(len(r["predictions"]) for r in report["realizations"])


def check_compare(path) -> list[str]:
    data, problems = _load_json(path, "compare")
    if problems:
        return problems
    try:
        ok = (data["t12"] + data["t21"] == data["n_disagreements"]
              and 0.0 <= data["p"] <= 1.0 and data["reject"] == (data["p"] < data["alpha"]))
    except (KeyError, TypeError):
        ok = False
    return [] if ok else ["compare: inconsistent test result"]


def check_relabel(path, catalog_path) -> list[str]:
    data, problems = _load_json(path, "relabel")
    catalog, more = _load_json(catalog_path, "catalog")
    if problems or more:
        return problems + more
    try:
        flagged = {v["id"] for v in catalog["mislabelings"] if v["flagged"]}
        ok = set(data["relabeled"]) <= flagged and 0.0 <= data["accuracy_mean"] <= 1.0
    except (KeyError, TypeError):
        ok = False
    return [] if ok else ["relabel: relabeled excerpts not flagged, or bad accuracy"]


def check_perfect_text(path, labels) -> list[str]:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        return [f"perfect: unreadable: {exc}"]
    if len(lines) != len(labels) + 4 or not lines[0].startswith("perfect-classifier"):
        return ["perfect: wrong shape"]
    rows_ok = all(line.startswith(label) for line, label in zip(lines[2:], labels))
    try:
        accuracy = float(lines[-1].removeprefix("accuracy:"))
    except ValueError:
        return ["perfect: no accuracy line"]
    return [] if rows_ok and 0.0 <= accuracy <= 100.0 else ["perfect: bad rows or accuracy"]
