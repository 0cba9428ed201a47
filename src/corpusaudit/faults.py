"""Fault catalog assembly and the upper-bound "perfect classifier" estimate.

The catalog collects four kinds of repetition (exact groups come from
fingerprinting; recording groups from a manual-evidence list; artist and
version groups from metadata), the mislabeling verdicts, and distortion
notes. Its exclusion set drives the fault-filtered partitions: every
member of an exact or recording group beyond the lexicographically
smallest, plus distortions whose usable prefix falls below 5 seconds.

The perfect-classifier confusion distributes one unit of weight per
excerpt across predicted labels according to its mislabel verdict.

``check_catalog`` is the only home of the catalog invariant: every catalog built
or read passes it, and against the corpus in use when a command has one.
"""

import csv
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Corpus, normalize_text, open_text, read_json, write_json
from .errors import IncompleteVerdictError, ParseError, UnknownExcerptError
from .evaluate import ConfusionTable, ExperimentResult, confusion_tables, figures_of_merit
from .fingerprint import connected_groups
from .tagscore import MislabelVerdict

REPETITION_KINDS = ("exact", "recording", "artist", "version")

MIN_USABLE_PREFIX_SECONDS = 5.0


@dataclass(frozen=True)
class RepetitionGroup:
    kind: str                   # exact | recording | artist | version
    members: tuple[str, ...]    # sorted, >= 2
    evidence: str               # fingerprint | metadata | manual

    @property
    def same_recording(self) -> bool:
        """Its members are one recording: an exact or recording group."""
        return self.kind in ("exact", "recording")


@dataclass(frozen=True)
class Distortion:
    excerpt_id: str
    note: str = ""
    usable_prefix_seconds: float | None = None

    @property
    def excluded(self) -> bool:
        return (self.usable_prefix_seconds is not None
                and self.usable_prefix_seconds < MIN_USABLE_PREFIX_SECONDS)


@dataclass
class FaultCatalog:
    labels: tuple[str, ...]
    label_counts: dict[str, int]
    repetitions: list[RepetitionGroup]
    mislabelings: list[MislabelVerdict]
    distortions: list[Distortion]
    deltas: dict[str, float] = field(default_factory=dict)

    def exclusions(self) -> frozenset[str]:
        """Ids removed by fault filtering; one representative per group stays."""
        repeated = {eid for g in self.repetitions if g.same_recording
                    for eid in sorted(g.members)[1:]}
        return frozenset(repeated | {d.excerpt_id for d in self.distortions if d.excluded})


def _metadata_groups(corpus: Corpus, key_fn, kind: str) -> list[RepetitionGroup]:
    groups: dict[str, list[str]] = {}
    for ex in corpus.excerpts:
        key = key_fn(ex)
        if key:
            groups.setdefault(key, []).append(ex.id)
    return [RepetitionGroup(kind=kind, members=tuple(sorted(ids)), evidence="metadata")
            for key, ids in sorted(groups.items()) if len(ids) >= 2]


def build_catalog(corpus: Corpus, exact_groups=(), verdicts=(), distortions=(),
                  recording_groups=(), deltas=None) -> FaultCatalog:
    """Assemble the catalog from audit outputs and metadata.

    ``exact_groups`` are id groups from fingerprinting; ``recording_groups``
    come from a manual-evidence source and are never inferred here;
    ``distortions`` are ``Distortion`` entries. Artist groups share a
    normalized artist string; version groups share a normalized title
    without already sitting inside one exact/recording group.
    """
    repetitions = [RepetitionGroup(kind=kind, members=members, evidence=evidence)
                   for kind, evidence, given in (("exact", "fingerprint", exact_groups),
                                                 ("recording", "manual", recording_groups))
                   for members in sorted(tuple(sorted(g)) for g in given)]

    repetitions += _metadata_groups(corpus, lambda ex: ex.artist_key, "artist")
    same_recording = [set(g.members) for g in repetitions if g.same_recording]
    for group in _metadata_groups(
            corpus, lambda ex: normalize_text(ex.title) if ex.title else None, "version"):
        if not any(set(group.members) <= members for members in same_recording):
            repetitions.append(group)

    return check_catalog(FaultCatalog(
        labels=corpus.labels,
        label_counts={label: len(corpus.with_label(label)) for label in corpus.labels},
        repetitions=repetitions, mislabelings=sorted(verdicts, key=lambda v: v.excerpt_id),
        distortions=sorted(distortions, key=lambda d: d.excerpt_id),
        deltas=dict(deltas) if deltas else {}), corpus)


@dataclass(frozen=True)
class PerfectConfusion:
    labels: tuple[str, ...]
    matrix: np.ndarray  # [predicted, true] fractional weights


def ranked_scores(verdict: MislabelVerdict, index: dict[str, int]) -> list[tuple[str, float]]:
    """A verdict's (label, score) pairs, best first; ties go to ``index`` order."""
    if not verdict.scores:
        raise IncompleteVerdictError(
            f"verdict for {verdict.excerpt_id!r} carries no score vector")
    return sorted(verdict.scores.items(), key=lambda p: (-p[1], index[p[0]]))


def perfect_confusion(catalog: FaultCatalog) -> PerfectConfusion:
    """Confusion of the hypothetical system whose only errors are mislabelings.

    Each excerpt contributes one unit of weight in its true-label column:
    unflagged excerpts put it on the diagonal; flagged ones put it on
    their highest-scoring label, split 0.5/0.5 when the runner-up lies
    within the label's margin of the best, or spread 1/|labels|
    everywhere when every score is zero. Flagged weights are added in
    catalog order, then each label's unflagged count on the diagonal.
    """
    labels = catalog.labels
    index = {label: i for i, label in enumerate(labels)}
    matrix = np.zeros((len(labels), len(labels)))
    flagged = dict.fromkeys(labels, 0)
    for v in catalog.mislabelings:
        if not v.flagged:
            continue
        flagged[v.label] += 1
        col = index[v.label]
        ranked = ranked_scores(v, index)
        best_label, best = ranked[0]
        if best == 0.0:
            matrix[:, col] += 1.0 / len(labels)
        elif len(ranked) > 1 and ranked[1][1] >= best - catalog.deltas[v.label]:
            matrix[index[best_label], col] += 0.5
            matrix[index[ranked[1][0]], col] += 0.5
        else:
            matrix[index[best_label], col] += 1.0
    for label, total in catalog.label_counts.items():
        matrix[index[label], index[label]] += total - flagged[label]
    return PerfectConfusion(labels=labels, matrix=matrix)


def perfect_statistics(pc: PerfectConfusion):
    """Figures of merit of the perfect confusion; delegates to the eval module."""
    return figures_of_merit(ConfusionTable(labels=pc.labels, counts=pc.matrix))


def relabel_map(catalog: FaultCatalog) -> dict[str, str]:
    """Each flagged excerpt's highest-scoring label, unless every score is zero."""
    index = {label: i for i, label in enumerate(catalog.labels)}
    new_labels = {}
    for v in catalog.mislabelings:
        if v.flagged:
            best_label, best = ranked_scores(v, index)[0]
            if best > 0.0:
                new_labels[v.excerpt_id] = best_label
    return new_labels


def relabeled_result(catalog: FaultCatalog, predictions) -> ExperimentResult:
    """``predictions`` scored against ``relabel_map``'s labels; all must name catalog labels."""
    new_labels, known = relabel_map(catalog), set(catalog.labels)
    for p in predictions:
        if not {p.true_label, p.predicted_label} <= known:
            raise ParseError(f"prediction for {p.excerpt_id!r} names a label outside the "
                             "catalog labels")
    relabeled = tuple(replace(p, true_label=new_labels.get(p.excerpt_id, p.true_label))
                      for p in predictions)
    return ExperimentResult(tables=confusion_tables(catalog.labels, relabeled),
                            predictions=relabeled)


def catalog_to_json(catalog: FaultCatalog) -> dict:
    return {
        "labels": list(catalog.labels),
        "label_counts": dict(catalog.label_counts),
        "repetitions": [
            {"kind": g.kind, "members": list(g.members), "evidence": g.evidence}
            for g in catalog.repetitions],
        "mislabelings": [
            {"id": v.excerpt_id, "label": v.label, "own_score": v.own_score,
             "scores": dict(v.scores), "best_other_label": v.best_other_label,
             "best_other_score": v.best_other_score, "flagged": v.flagged,
             "rule": v.rule}
            for v in catalog.mislabelings],
        "distortions": [
            {"id": d.excerpt_id, "note": d.note,
             "usable_prefix_seconds": d.usable_prefix_seconds}
            for d in catalog.distortions],
        "deltas": dict(catalog.deltas),
    }


def _number(x, low: float = -sys.float_info.max) -> bool:
    """``x`` is an int or float, not a bool, from ``low`` to the largest finite float."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and low <= x <= sys.float_info.max)  # False for nan


def check_catalog(catalog: FaultCatalog, corpus: Corpus | None = None) -> FaultCatalog:
    """``catalog`` if it holds the catalog invariant, and with ``corpus`` has its label
    set and only its ids; else the first breach, naming a group by kind and index."""
    labels = set(catalog.labels)
    if set(catalog.label_counts) != labels or not all(
            type(n) is int and 0 <= n <= 2**53 for n in catalog.label_counts.values()):
        raise ParseError("label_counts must map exactly the catalog labels to integer counts "
                         "from 0 to 2**53")  # float64 holds each exactly
    for label, d in catalog.deltas.items():
        if label not in labels:
            raise ParseError(f"delta for label {label!r}, which is not a catalog label")
        if not _number(d, 0):
            raise ParseError(f"delta for label {label!r} must be a finite number >= 0, got {d!r}")
    if corpus is not None and labels != set(corpus.labels):
        raise ParseError(f"catalog labels {', '.join(catalog.labels)} differ from the "
                         f"metadata labels {', '.join(corpus.labels)}")

    def check_known(what: str, ids) -> None:
        unknown = [eid for eid in ids if corpus is not None and eid not in corpus]
        if unknown:
            raise UnknownExcerptError(f"{what} names unknown excerpt {unknown[0]!r}")

    for i, group in enumerate(catalog.repetitions):
        if group.kind not in REPETITION_KINDS:
            raise ParseError(f"repetition group {i}: kind must be one of "
                             f"{', '.join(REPETITION_KINDS)}, got {group.kind!r}")
        what, members = f"{group.kind} group {i}", group.members
        if len(members) < 2:
            raise ParseError(f"{what} holds fewer than two excerpt ids: {list(members)}")
        if len(set(members)) < len(members):
            repeated = next(eid for k, eid in enumerate(members) if eid in members[:k])
            raise ParseError(f"{what} repeats excerpt {repeated!r}")
        check_known(what, members)
    seen = set()
    for i, d in enumerate(catalog.distortions):
        if d.excerpt_id in seen:
            raise ParseError(f"distortion entry {i} repeats id {d.excerpt_id!r}")
        seen.add(d.excerpt_id)
        if not (d.usable_prefix_seconds is None or _number(d.usable_prefix_seconds, 0)):
            raise ParseError(f"distortion entry {i}: usable_prefix_seconds must be a "
                             f"finite number >= 0, got {d.usable_prefix_seconds!r}")
        check_known("distortion", [d.excerpt_id])
    for v in catalog.mislabelings:
        if (v.label not in labels or not set(v.scores) <= labels
                or v.best_other_label not in (None, *catalog.labels)):
            raise ParseError(f"mislabeling {v.excerpt_id!r} names a label outside "
                             "the catalog labels")
        if not (isinstance(v.excerpt_id, str) and isinstance(v.flagged, bool) and all(
                map(_number, [v.own_score, v.best_other_score, *v.scores.values()]))):
            raise ParseError(f"mislabeling {v.excerpt_id!r} must have a string id, finite "
                             "scores and a true or false 'flagged'")
        if v.flagged and not v.scores:
            raise IncompleteVerdictError(f"flagged mislabeling {v.excerpt_id!r} "
                                         "carries no score vector")
        if v.flagged and v.label not in catalog.deltas:
            raise ParseError(f"flagged mislabeling {v.excerpt_id!r}: no delta for "
                             f"label {v.label!r}")
        check_known("mislabeling", [v.excerpt_id])
    return catalog


def _excerpt_ids(kind: str, i: int, members) -> tuple[str, ...]:
    # checked here: tuple() would turn one string into a group of its characters
    if not (isinstance(members, list) and all(isinstance(eid, str) for eid in members)):
        raise ParseError(f"{kind} group {i}: members must be an array of excerpt ids, "
                         f"got {members!r}")
    return tuple(members)


def _check_read(corpus: Corpus | None, repetitions=(), distortions=()) -> None:
    """``check_catalog`` on what one reader read, so its errors name that file."""
    labels = corpus.labels if corpus is not None else ()
    check_catalog(FaultCatalog(labels, dict.fromkeys(labels, 0), list(repetitions), [],
                               list(distortions)), corpus)


def recording_groups_from_json(entries, corpus: Corpus) -> list[tuple[str, ...]]:
    """Manual recording groups: arrays of excerpt ids, all in ``corpus``."""
    if not isinstance(entries, list):
        raise ParseError("expected a JSON array of recording groups (arrays of excerpt ids)")
    groups = [_excerpt_ids("recording", i, g) for i, g in enumerate(entries)]
    _check_read(corpus, repetitions=[RepetitionGroup("recording", g, "manual") for g in groups])
    return groups


def exact_groups_from_csv(path, threshold: float, corpus: Corpus) -> list[tuple[str, ...]]:
    """Exact-repetition groups of an ``audit dupes`` CSV: the connected pairs
    scoring at least ``threshold``. Every id must be in ``corpus``, every pair
    two distinct ids, and every score a number from 0 to 1, as ``match`` gives."""
    edges = []
    with open_text(path, "dupes CSV") as fh:
        for lineno, row in enumerate(csv.DictReader(fh), start=2):
            try:
                pair, score = (row["id_a"], row["id_b"]), float(row["score"])
            except (KeyError, TypeError, ValueError):
                raise ParseError(f"{path}:{lineno}: expected id_a,id_b,score") from None
            if not 0.0 <= score <= 1.0:  # False for nan
                raise ParseError(f"{path}:{lineno}: score {row['score']} is not a number "
                                 "from 0 to 1")
            unknown = [eid for eid in pair if eid not in corpus]
            if unknown:
                raise UnknownExcerptError(f"{path}:{lineno}: unknown excerpt {unknown[0]!r}")
            if pair[0] == pair[1]:
                raise ParseError(f"{path}:{lineno}: excerpt {pair[0]!r} is paired with itself")
            if score >= threshold:
                edges.append(pair)
    return connected_groups(edges)


def distortions_from_json(entries, corpus=None) -> list[Distortion]:
    """Distortion entries ``{"id", "note"?, "usable_prefix_seconds"?}``; with a
    ``corpus``, every id must be in it."""
    if not isinstance(entries, list):
        raise ParseError("expected a JSON array of distortion entries")
    out = []
    for i, d in enumerate(entries):
        if not (isinstance(d, dict) and isinstance(d.get("id"), str)):
            raise ParseError(f"distortion entry {i} must be an object with a string 'id', "
                             f"got {d!r}")
        out.append(Distortion(excerpt_id=d["id"], note=d.get("note", ""),
                              usable_prefix_seconds=d.get("usable_prefix_seconds")))
    _check_read(corpus, distortions=out)
    return out


def catalog_from_json(data: dict, corpus: Corpus | None = None) -> FaultCatalog:
    try:
        return check_catalog(FaultCatalog(
            labels=tuple(data["labels"]),
            label_counts=dict(data["label_counts"].items()),  # an object, not pairs
            repetitions=[RepetitionGroup(kind=g["kind"],
                                         members=_excerpt_ids("repetition", i, g["members"]),
                                         evidence=g["evidence"])
                         for i, g in enumerate(data["repetitions"])],
            mislabelings=[MislabelVerdict(
                excerpt_id=v["id"], label=v["label"], own_score=v["own_score"],
                scores=dict(v["scores"]),
                best_other_label=v["best_other_label"],
                best_other_score=v["best_other_score"],
                flagged=v["flagged"], rule=v["rule"])
                for v in data["mislabelings"]],
            distortions=distortions_from_json(data["distortions"]),
            deltas=dict(data.get("deltas", {}).items()),
        ), corpus)
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed catalog JSON: {exc}") from None


def save_catalog(catalog: FaultCatalog, path) -> None:
    write_json(path, catalog_to_json(catalog), "catalog")


def load_catalog(path, corpus: Corpus | None = None) -> FaultCatalog:
    return read_json(path, "catalog", lambda data: catalog_from_json(data, corpus))
