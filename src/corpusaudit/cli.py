"""Command-line front end; ``COMMANDS`` lists every command and its arguments.

Exit codes: 0 success, 1 audit findings under ``--strict``, 2 errors, each in one
``error:`` line (a ``--threshold`` that is not a finite number is one). Commands
are deterministic given inputs, flags and seed, and randomized ones record their
seed in the report. Reruns are byte-identical whatever ``AUDIT_THREADS`` (the cap
on fingerprinting threads; 0 or unset = one per CPU, not a non-negative integer =
exit 2) or the BLAS thread count.
"""

import argparse
import csv
import dataclasses
import functools
import io
import math
import os
import sys
from pathlib import Path

from . import classify, evaluate, faults, features, fingerprint, tagscore
from .corpus import (Corpus, load_audio, load_metadata, load_tags, read_json, write_json,
                     write_text)
from .errors import AuditError, IncompleteFeaturesError, ParseError, TooShortError, in_file

# fixed default so reruns without an explicit seed are reproducible
DEFAULT_SEED = 1234


def _worker_count() -> int:
    """Fingerprinting threads: ``AUDIT_THREADS``, or one per CPU if it is 0 or unset."""
    raw = os.environ.get("AUDIT_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ParseError(f"AUDIT_THREADS must be a non-negative integer, got {raw!r}")
    return n or os.cpu_count() or 1


def _load_corpus(args) -> Corpus:
    corpus = load_metadata(args.metadata)
    audio_dir = Path(args.audio_dir)
    return dataclasses.replace(corpus, excerpts=tuple(
        dataclasses.replace(ex, audio_path=audio_dir / f"{ex.id}.wav")
        for ex in corpus.excerpts))


def _csv_text(header: list[str], rows) -> str:
    """``header`` then ``rows`` as CSV text, quoted where a field needs it, ``\\n`` line ends."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return text.getvalue()


def cmd_audit_dupes(args) -> int:
    corpus = _load_corpus(args)
    hashsets = fingerprint.cached_fingerprints(corpus, args.cache, workers=_worker_count())
    # only the corpus's own excerpts: a cache may hold ids the metadata lacks
    matches = fingerprint.match_all([hashsets[ex.id] for ex in corpus.excerpts],
                                    args.threshold)
    write_text(args.out, _csv_text(["id_a", "id_b", "score", "offset_frames"], [
        [*m.pair, f"{m.score:.6f}", f"{m.offset_mode}"] for m in matches]))
    return 1 if args.strict and matches else 0


def cmd_audit_labels(args) -> int:
    corpus = load_metadata(args.metadata)
    matrix, verdicts = tagscore.audit_labels(corpus, load_tags(args.tags, corpus))
    rows = []
    for v in verdicts:
        g = matrix.index(v.label)
        rows.append([v.excerpt_id, v.label, f"{v.own_score:.6f}", f"{matrix.scores[g, g]:.6f}",
                     v.best_other_label or "", f"{v.best_other_score:.6f}",
                     f"{matrix.deltas[g]:.6f}", v.rule])
    write_text(args.out, _csv_text(["id", "label", "own_score", "diagonal", "best_other_label",
                                    "best_other_score", "delta", "rule"], rows))
    return 1 if args.strict and any(v.flagged for v in verdicts) else 0


def cmd_catalog_build(args) -> int:
    corpus = load_metadata(args.metadata)
    exact_groups = (faults.exact_groups_from_csv(args.dupes, args.threshold, corpus)
                    if args.dupes else [])
    recording_groups = read_json(args.recordings, "recording groups", functools.partial(
        faults.recording_groups_from_json, corpus=corpus)) if args.recordings else []
    distortions = read_json(args.distortions, "distortion list", functools.partial(
        faults.distortions_from_json, corpus=corpus)) if args.distortions else []
    verdicts, deltas = (tagscore.catalog_inputs(corpus, load_tags(args.tags, corpus))
                        if args.tags else ([], {}))
    catalog = faults.build_catalog(corpus, exact_groups=exact_groups,
                                   verdicts=verdicts, distortions=distortions,
                                   recording_groups=recording_groups, deltas=deltas)
    faults.save_catalog(catalog, args.out)
    return 0


def cmd_catalog_show(args) -> int:
    catalog = faults.load_catalog(args.catalog)
    by_kind = {}
    for g in catalog.repetitions:
        by_kind.setdefault(g.kind, []).append(g)
    lines = ["fault catalog"]
    lines.append(f"  labels: {', '.join(catalog.labels)}")
    lines.append(f"  exclusions: {len(catalog.exclusions())}")
    for kind in faults.REPETITION_KINDS:
        groups = by_kind.get(kind, [])
        members = sum(len(g.members) for g in groups)
        lines.append(f"  {kind} repetitions: {len(groups)} groups, {members} excerpts")
        for g in groups:
            lines.append(f"    ({', '.join(g.members)})")
    lines.append(f"  mislabelings: {len(catalog.mislabelings)}")
    for v in catalog.mislabelings:
        lines.append(f"    {v.excerpt_id} [{v.label}] rule={v.rule} "
                     f"own={v.own_score:.5f} best_other={v.best_other_label}")
    lines.append(f"  distortions: {len(catalog.distortions)}")
    for d in catalog.distortions:
        suffix = "" if d.usable_prefix_seconds is None else \
            f" (usable prefix {d.usable_prefix_seconds:g} s)"
        lines.append(f"    {d.excerpt_id}: {d.note}{suffix}")
    write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _read_artist_folds(path) -> dict[str, int] | None:
    """The ``--artist-folds`` file as ``evaluate.read_artist_folds`` normalizes it."""
    return read_json(path, "artist folds", evaluate.read_artist_folds) if path else None


def cmd_partition_make(args) -> int:
    corpus = load_metadata(args.metadata)
    catalog = faults.load_catalog(args.catalog, corpus) if args.catalog else None
    artist_folds = _read_artist_folds(args.artist_folds)
    partition = evaluate.make_partition(corpus, args.scheme, seed=args.seed,
                                        catalog=catalog, artist_folds=artist_folds,
                                        realization=args.realization)
    write_json(args.out, {
        "scheme": partition.scheme,
        "seed": partition.seed,
        "realization": partition.realization,
        "folds": [list(f) for f in partition.folds],
    })
    return 0


def cmd_features_extract(args) -> int:
    corpus = _load_corpus(args)
    feats = {}
    for ex in corpus.excerpts:
        samples = load_audio(ex)
        with in_file(ex.audio_path, TooShortError):
            feats[ex.id] = features.excerpt_features(samples)
    features.write_feature_cache(args.out, feats)
    return 0


def _merit_json(key: str, matrix, fom: evaluate.FiguresOfMerit) -> dict:
    """``matrix`` under ``key``, rounded, then the four figures of merit."""
    return {key: [[round(v, 10) for v in row] for row in matrix], "recall": fom.recall,
            "precision": fom.precision, "fscore": fom.fscore, "accuracy": fom.accuracy}


def _folds_json(results) -> tuple[list[list[dict]], float, float]:
    """Each realization's per-fold report dicts, then the mean and standard deviation
    of the fold accuracies, as ``evaluate.accuracy_summary`` gives them; each fold's
    figures of merit are computed once."""
    figures = [[evaluate.figures_of_merit(t) for t in res.tables] for res in results]
    mean, std = evaluate.accuracy_mean_std([f.accuracy for fs in figures for f in fs])
    return [[_merit_json("confusion", f.confusion, f) for f in fs] for fs in figures], mean, std


def cmd_eval_run(args) -> int:
    corpus = load_metadata(args.metadata)
    if not corpus.excerpts:
        raise ParseError(f"{args.metadata}: no excerpts to evaluate")
    feats = features.read_feature_cache(args.features)
    catalog = faults.load_catalog(args.catalog, corpus) if args.catalog else None
    artist_folds = _read_artist_folds(args.artist_folds)
    with in_file(args.features, IncompleteFeaturesError):
        results = evaluate.run_realizations(
            corpus, args.scheme, args.classifier, feats, seed=args.seed,
            realizations=args.realizations, catalog=catalog, artist_folds=artist_folds)
    folds, mean, std = _folds_json(results)
    write_json(args.out, {
        "scheme": args.scheme,
        "classifier": args.classifier,
        "seed": args.seed,
        "labels": list(corpus.labels),
        "accuracy_mean": mean,
        "accuracy_std": std,
        "realizations": [
            {"folds": fold_dicts,
             "predictions": [{"id": p.excerpt_id, "true": p.true_label,
                              "predicted": p.predicted_label, "fold": p.fold}
                             for p in res.predictions]}
            for res, fold_dicts in zip(results, folds)],
    })
    return 0


def _read_predictions(path) -> list[list[evaluate.PredictionRecord]]:
    """Each realization's predictions from an ``eval run`` report, each excerpt once."""
    report = read_json(path, "report")
    try:
        realizations = [[_prediction(p) for p in realization["predictions"]]
                        for realization in report["realizations"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed report: {exc!r}") from None
    for i, predictions in enumerate(realizations):
        seen = set()
        for p in predictions:
            if p.excerpt_id in seen:
                raise ParseError(f"{path}: realization {i} repeats excerpt {p.excerpt_id!r}")
            seen.add(p.excerpt_id)
    return realizations


def _prediction(p) -> evaluate.PredictionRecord:
    """One report prediction: string ``id``, ``true`` and ``predicted``, and a
    non-negative integer ``fold``; anything else is a TypeError."""
    for key in ("id", "true", "predicted"):
        if not isinstance(p[key], str):
            raise TypeError(f"prediction {key!r} is not a string: {p[key]!r}")
    if type(p["fold"]) is not int or p["fold"] < 0:  # bool is an int subclass
        raise TypeError(f"prediction 'fold' is not a non-negative integer: {p['fold']!r}")
    return evaluate.PredictionRecord(excerpt_id=p["id"], true_label=p["true"],
                                     predicted_label=p["predicted"], fold=p["fold"])


def cmd_eval_compare(args) -> int:
    realizations_a, realizations_b = map(_read_predictions, (args.report_a, args.report_b))
    with in_file(f"{args.report_a}, {args.report_b}"):
        res = evaluate.significance_test(realizations_a, realizations_b)
    write_json(args.out, {
        "n_disagreements": res.n,
        "t12": res.t12,
        "t21": res.n - res.t12,
        "p": res.p,
        "alpha": evaluate.ALPHA,
        "reject": res.reject,
        "conclusion": "reject" if res.reject else "fail to reject",
    })
    return 0


def cmd_eval_relabel(args) -> int:
    catalog = faults.load_catalog(args.catalog)
    realizations = _read_predictions(args.predictions)
    with in_file(args.predictions):
        results = [faults.relabeled_result(catalog, preds) for preds in realizations]
        folds, mean, std = _folds_json(results)
    write_json(args.out, {
        "relabeled": sorted(faults.relabel_map(catalog)),
        "accuracy_mean": mean,
        "accuracy_std": std,
        "realizations": [{"folds": fold_dicts} for fold_dicts in folds],
    })
    return 0


def cmd_report_perfect(args) -> int:
    catalog = faults.load_catalog(args.catalog)
    pc = faults.perfect_confusion(catalog)
    with in_file(args.catalog):
        fom = faults.perfect_statistics(pc)
    labels = catalog.labels
    if args.format == "json":
        write_json(args.out, {"labels": list(labels), **_merit_json("matrix", pc.matrix, fom)})
        return 0
    # values rendered x10^-2 with one decimal, like the matrix itself
    width = max(9, max(len(lb) for lb in labels) + 1)
    header = " " * width + "".join(f"{lb[:8]:>9}" for lb in labels) + f"{'Prec':>9}"
    lines = ["perfect-classifier estimate (values x10^-2)", header]
    for i, row_label in enumerate(labels):
        cells = "".join(f"{100 * pc.matrix[i, j]:9.1f}" for j in range(len(labels)))
        p = fom.precision[row_label]
        cells += f"{100 * p:9.1f}" if p is not None else f"{'-':>9}"
        lines.append(f"{row_label:<{width}}" + cells)
    frow = "".join(
        f"{100 * fom.fscore[lb]:9.1f}" if fom.fscore[lb] is not None else f"{'-':>9}"
        for lb in labels)
    lines.append(f"{'F-score':<{width}}" + frow + f"{'':>9}")
    lines.append(f"accuracy: {100 * fom.accuracy:.1f}")
    write_text(args.out, "\n".join(lines) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad argument in one line, as every other bad input is."""

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _at_least(minimum: int):
    """Argument type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return parse


def _finite(text: str) -> float:
    """Argument type: a float that is neither nan nor infinite; for text that is no
    number at all, the message ``type=float`` gives."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


# Arguments that two or more commands share, each a (flag, add_argument keywords) pair.
METADATA = ("--metadata", {"required": True})
AUDIO_DIR = ("--audio-dir", {"required": True})
OUT = ("--out", {})
OUT_REQUIRED = ("--out", {"required": True})
CATALOG = ("--catalog", {})
CATALOG_REQUIRED = ("--catalog", {"required": True})
THRESHOLD = ("--threshold", {"type": _finite, "default": fingerprint.DEFAULT_THRESHOLD})
SCHEME = ("--scheme", {"choices": evaluate.SCHEMES, "required": True})
SEED = ("--seed", {"type": _at_least(0), "default": DEFAULT_SEED})

# (command, help, [(subcommand, help or None, handler, arguments in --help order)])
COMMANDS = [
    ("audit", "run integrity audits", [
        ("dupes", "fingerprint-based duplicate audit", cmd_audit_dupes, [
            METADATA, AUDIO_DIR,
            ("--cache", {"help": "binary fingerprint cache to reuse or create"}),
            THRESHOLD, OUT,
            ("--strict", {"action": "store_true",
                          "help": "exit 1 when any duplicate is found"})]),
        ("labels", "tag-score mislabeling audit", cmd_audit_labels, [
            METADATA, ("--tags", {"required": True}), OUT,
            ("--strict", {"action": "store_true"})])]),
    ("catalog", "fault catalog assembly", [
        ("build", None, cmd_catalog_build, [
            METADATA, ("--tags", {}), ("--dupes", {"help": "CSV from 'audit dupes'"}),
            ("--recordings", {"help": "JSON list of manual recording groups"}),
            ("--distortions", {"help": "JSON list of distortion entries"}),
            THRESHOLD, OUT_REQUIRED]),
        ("show", None, cmd_catalog_show, [CATALOG_REQUIRED, OUT])]),
    ("partition", "fold construction", [
        ("make", None, cmd_partition_make, [
            METADATA, SCHEME, SEED, ("--realization", {"type": _at_least(0), "default": 0}),
            CATALOG, ("--artist-folds", {"help": "JSON {fold1: [...], fold2: [...]}"}),
            OUT])]),
    ("features", "feature extraction", [
        ("extract", None, cmd_features_extract, [METADATA, AUDIO_DIR, OUT_REQUIRED])]),
    ("eval", "classification experiments", [
        ("run", None, cmd_eval_run, [
            METADATA, ("--features", {"required": True}), SCHEME,
            ("--classifier", {"choices": classify.KINDS, "required": True}), SEED,
            ("--realizations", {"type": _at_least(1), "default": 1}),
            CATALOG, ("--artist-folds", {}), OUT]),
        ("compare", None, cmd_eval_compare, [("report_a", {}), ("report_b", {}), OUT]),
        ("relabel", None, cmd_eval_relabel, [
            CATALOG_REQUIRED,
            ("--predictions", {"required": True, "help": "report JSON from 'eval run'"}),
            OUT])]),
    ("report", "summary reports", [
        ("perfect", None, cmd_report_perfect, [
            CATALOG_REQUIRED, ("--format", {"choices": ("text", "json"), "default": "text"}),
            OUT])]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corpusaudit",
        description="Corpus-integrity auditing and fault-aware evaluation "
                    "for labeled audio datasets.")
    commands = parser.add_subparsers(dest="command", required=True)
    for command, command_help, subcommands in COMMANDS:
        group = commands.add_parser(command, help=command_help)
        group_sub = group.add_subparsers(dest="subcommand", required=True)
        for name, sub_help, handler, arguments in subcommands:
            # a help of None would still list the subcommand in its group's --help
            sub = group_sub.add_parser(name, **({"help": sub_help} if sub_help else {}))
            for flag, keywords in arguments:
                sub.add_argument(flag, **keywords)
            sub.set_defaults(func=handler)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The one parser ``dispatch`` reuses; building it takes about 2 ms."""
    return build_parser()


def dispatch(argv) -> int:
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except AuditError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
