"""Command-line front end.

Subcommands: ``audit dupes``, ``audit labels``, ``catalog build|show``,
``partition make``, ``features extract``, ``eval run|compare|relabel``,
``report perfect``. Exit codes: 0 success, 1 audit findings under
``--strict``, 2 errors. Every command is deterministic given its inputs,
flags and seed; randomized commands print their effective seed in the
report header. ``AUDIT_THREADS`` caps the fingerprinting worker count
(0 or unset = auto).
"""

import argparse
import csv
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from . import classify, evaluate, faults, features, fingerprint, tagscore
from .corpus import Corpus, load_audio, load_metadata, load_tags, open_text, read_json
from .errors import AuditError, ParseError, in_file, writing

# fixed default so reruns without an explicit seed are reproducible
DEFAULT_SEED = 1234


def _worker_count() -> int:
    raw = os.environ.get("AUDIT_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return n if n > 0 else (os.cpu_count() or 1)


def _load_corpus(args) -> Corpus:
    corpus = load_metadata(args.metadata)
    if getattr(args, "audio_dir", None):
        audio_dir = Path(args.audio_dir)
        corpus = dataclasses.replace(corpus, excerpts=tuple(
            dataclasses.replace(ex, audio_path=audio_dir / f"{ex.id}.wav")
            for ex in corpus.excerpts))
    return corpus


def _write_text(path, text: str):
    if path:
        with writing(path, "output"):
            Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_json(path, obj):
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def cmd_audit_dupes(args) -> int:
    corpus = _load_corpus(args)
    if args.cache and Path(args.cache).exists():
        hashsets = fingerprint.read_cache(args.cache)
        missing = [ex.id for ex in corpus.excerpts if ex.id not in hashsets]
        if missing:
            raise ParseError(f"{args.cache}: no fingerprints for excerpt {missing[0]!r}"
                             f" ({len(missing)} of {len(corpus.excerpts)} missing);"
                             " delete the cache to rebuild it")
    else:
        hashsets = fingerprint.fingerprint_corpus(corpus, workers=_worker_count())
        if args.cache:
            fingerprint.write_cache(args.cache, hashsets)
    matches = fingerprint.match_all([hashsets[ex.id] for ex in corpus.excerpts],
                                    threshold=args.threshold)
    matches.sort(key=lambda m: tuple(sorted(m.pair)))
    lines = ["id_a,id_b,score,offset_frames"]
    for m in matches:
        a, b = sorted(m.pair)
        lines.append(f"{a},{b},{m.score:.6f},{m.offset_mode}")
    _write_text(args.out, "\n".join(lines) + "\n")
    return 1 if args.strict and matches else 0


def cmd_audit_labels(args) -> int:
    corpus = load_metadata(args.metadata)
    matrix, verdicts = tagscore.audit_labels(corpus, load_tags(args.tags, corpus))
    lines = ["id,label,own_score,diagonal,best_other_label,best_other_score,delta,rule"]
    flagged = 0
    for v in verdicts:
        g = matrix.index(v.label)
        lines.append(
            f"{v.excerpt_id},{v.label},{v.own_score:.6f},{matrix.scores[g, g]:.6f},"
            f"{v.best_other_label or ''},{v.best_other_score:.6f},"
            f"{matrix.deltas[g]:.6f},{v.rule}")
        flagged += v.flagged
    _write_text(args.out, "\n".join(lines) + "\n")
    return 1 if args.strict and flagged else 0


def _read_dupe_groups(path, threshold):
    """Exact-repetition groups from an ``audit dupes`` CSV."""
    edges = []
    with open_text(path, "dupes CSV") as fh:
        for lineno, row in enumerate(csv.DictReader(fh), start=2):
            try:
                if float(row["score"]) >= threshold:
                    edges.append((row["id_a"], row["id_b"]))
            except (KeyError, TypeError, ValueError):
                raise ParseError(f"{path}:{lineno}: expected id_a,id_b,score") from None
    return fingerprint.connected_groups(edges)


def cmd_catalog_build(args) -> int:
    corpus = load_metadata(args.metadata)
    exact_groups = _read_dupe_groups(args.dupes, args.threshold) if args.dupes else []
    recording_groups, distortions = [], []
    if args.recordings:
        entries = read_json(args.recordings, "recording groups")
        with in_file(args.recordings):
            recording_groups = faults.recording_groups_from_json(entries)
            faults.check_known_ids(corpus, recording_groups=recording_groups)
    if args.distortions:
        entries = read_json(args.distortions, "distortion list")
        with in_file(args.distortions):
            distortions = faults.distortions_from_json(entries)
            faults.check_known_ids(corpus, distortions=distortions)
    verdicts, deltas = [], {}
    if args.tags:
        matrix, verdicts = tagscore.audit_labels(corpus, load_tags(args.tags, corpus))
        verdicts = [v for v in verdicts if v.flagged]
        deltas = {label: float(matrix.deltas[i]) for i, label in enumerate(matrix.labels)}
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
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _read_artist_folds(path):
    """The ``--artist-folds`` mapping, checked on reading so errors name the file."""
    if not path:
        return None
    artist_folds = read_json(path, "artist folds")
    with in_file(path):
        evaluate.read_artist_folds(artist_folds)
    return artist_folds


def cmd_partition_make(args) -> int:
    corpus = load_metadata(args.metadata)
    catalog = faults.load_catalog(args.catalog) if args.catalog else None
    artist_folds = _read_artist_folds(args.artist_folds)
    partition = evaluate.make_partition(corpus, args.scheme, seed=args.seed,
                                        catalog=catalog, artist_folds=artist_folds,
                                        realization=args.realization)
    _write_json(args.out, {
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
        samples = load_audio(ex, corpus.sample_rate)
        feats[ex.id] = features.excerpt_features(samples, corpus.sample_rate)
    features.write_feature_cache(args.out, feats)
    return 0


def _merit_json(key: str, matrix, fom: evaluate.FiguresOfMerit) -> dict:
    """``matrix`` under ``key``, rounded, then the four figures of merit."""
    return {key: [[round(v, 10) for v in row] for row in matrix], "recall": fom.recall,
            "precision": fom.precision, "fscore": fom.fscore, "accuracy": fom.accuracy}


def _fold_json(table: evaluate.ConfusionTable) -> dict:
    fom = evaluate.figures_of_merit(table)
    return _merit_json("confusion", fom.confusion, fom)


def cmd_eval_run(args) -> int:
    corpus = load_metadata(args.metadata)
    feats = features.read_feature_cache(args.features)
    catalog = faults.load_catalog(args.catalog) if args.catalog else None
    artist_folds = _read_artist_folds(args.artist_folds)
    results = []
    for realization in range(args.realizations):
        partition = evaluate.make_partition(
            corpus, args.scheme, seed=args.seed, catalog=catalog,
            artist_folds=artist_folds, realization=realization)
        results.append(evaluate.run_experiment(corpus, partition, args.classifier,
                                               feats, seed=args.seed))
    mean, std = evaluate.accuracy_summary(results)
    _write_json(args.out, {
        "scheme": args.scheme,
        "classifier": args.classifier,
        "seed": args.seed,
        "labels": list(corpus.labels),
        "accuracy_mean": mean,
        "accuracy_std": std,
        "realizations": [
            {"folds": [_fold_json(t) for t in res.tables],
             "predictions": [{"id": p.excerpt_id, "true": p.true_label,
                              "predicted": p.predicted_label, "fold": p.fold}
                             for p in res.predictions]}
            for res in results],
    })
    return 0


def _read_predictions(path) -> list[list[evaluate.PredictionRecord]]:
    """Each realization's predictions from an ``eval run`` report."""
    report = read_json(path, "report")
    try:
        return [[evaluate.PredictionRecord(excerpt_id=p["id"], true_label=p["true"],
                                           predicted_label=p["predicted"], fold=p["fold"])
                 for p in realization["predictions"]]
                for realization in report["realizations"]]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: malformed report: {exc!r}") from None


def cmd_eval_compare(args) -> int:
    preds_a, preds_b = ([p for preds in _read_predictions(path) for p in preds]
                        for path in (args.report_a, args.report_b))
    res = evaluate.significance_test(preds_a, preds_b)
    _write_json(args.out, {
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
    known = set(catalog.labels)
    stray = [p.excerpt_id for preds in realizations for p in preds
             if not {p.true_label, p.predicted_label} <= known]
    if stray:
        raise ParseError(f"{args.predictions}: prediction for {stray[0]!r} names a label "
                         "outside the catalog labels")
    new_labels = faults.relabel_map(catalog)
    results = [evaluate.ExperimentResult(
        tables=evaluate.confusion_tables(catalog.labels, preds, true_labels=new_labels),
        predictions=tuple(preds)) for preds in realizations]
    with in_file(args.predictions):
        mean, std = evaluate.accuracy_summary(results)
    _write_json(args.out, {
        "relabeled": sorted(new_labels),
        "accuracy_mean": mean,
        "accuracy_std": std,
        "realizations": [{"folds": [_fold_json(t) for t in res.tables]} for res in results],
    })
    return 0


def cmd_report_perfect(args) -> int:
    catalog = faults.load_catalog(args.catalog)
    pc = faults.perfect_confusion(catalog)
    fom = faults.perfect_statistics(pc)
    labels = catalog.labels
    if args.format == "json":
        _write_json(args.out, {"labels": list(labels), **_merit_json("matrix", pc.matrix, fom)})
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
    _write_text(args.out, "\n".join(lines) + "\n")
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="corpusaudit",
        description="Corpus-integrity auditing and fault-aware evaluation "
                    "for labeled audio datasets.")
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="run integrity audits")
    audit_sub = audit.add_subparsers(dest="subcommand", required=True)

    dupes = audit_sub.add_parser("dupes", help="fingerprint-based duplicate audit")
    dupes.add_argument("--metadata", required=True)
    dupes.add_argument("--audio-dir", required=True)
    dupes.add_argument("--cache", help="binary fingerprint cache to reuse or create")
    dupes.add_argument("--threshold", type=float, default=fingerprint.DEFAULT_THRESHOLD)
    dupes.add_argument("--out")
    dupes.add_argument("--strict", action="store_true",
                       help="exit 1 when any duplicate is found")
    dupes.set_defaults(func=cmd_audit_dupes)

    labels_p = audit_sub.add_parser("labels", help="tag-score mislabeling audit")
    labels_p.add_argument("--metadata", required=True)
    labels_p.add_argument("--tags", required=True)
    labels_p.add_argument("--out")
    labels_p.add_argument("--strict", action="store_true")
    labels_p.set_defaults(func=cmd_audit_labels)

    catalog = sub.add_parser("catalog", help="fault catalog assembly")
    catalog_sub = catalog.add_subparsers(dest="subcommand", required=True)
    cbuild = catalog_sub.add_parser("build")
    cbuild.add_argument("--metadata", required=True)
    cbuild.add_argument("--tags")
    cbuild.add_argument("--dupes", help="CSV from 'audit dupes'")
    cbuild.add_argument("--recordings", help="JSON list of manual recording groups")
    cbuild.add_argument("--distortions", help="JSON list of distortion entries")
    cbuild.add_argument("--threshold", type=float, default=fingerprint.DEFAULT_THRESHOLD)
    cbuild.add_argument("--out", required=True)
    cbuild.set_defaults(func=cmd_catalog_build)
    cshow = catalog_sub.add_parser("show")
    cshow.add_argument("--catalog", required=True)
    cshow.add_argument("--out")
    cshow.set_defaults(func=cmd_catalog_show)

    partition = sub.add_parser("partition", help="fold construction")
    partition_sub = partition.add_subparsers(dest="subcommand", required=True)
    pmake = partition_sub.add_parser("make")
    pmake.add_argument("--metadata", required=True)
    pmake.add_argument("--scheme", choices=evaluate.SCHEMES, required=True)
    pmake.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    pmake.add_argument("--realization", type=_at_least(0), default=0)
    pmake.add_argument("--catalog")
    pmake.add_argument("--artist-folds", help="JSON {fold1: [...], fold2: [...]}")
    pmake.add_argument("--out")
    pmake.set_defaults(func=cmd_partition_make)

    feats = sub.add_parser("features", help="feature extraction")
    feats_sub = feats.add_subparsers(dest="subcommand", required=True)
    fextract = feats_sub.add_parser("extract")
    fextract.add_argument("--metadata", required=True)
    fextract.add_argument("--audio-dir", required=True)
    fextract.add_argument("--out", required=True)
    fextract.set_defaults(func=cmd_features_extract)

    evalp = sub.add_parser("eval", help="classification experiments")
    eval_sub = evalp.add_subparsers(dest="subcommand", required=True)
    erun = eval_sub.add_parser("run")
    erun.add_argument("--metadata", required=True)
    erun.add_argument("--features", required=True)
    erun.add_argument("--scheme", choices=evaluate.SCHEMES, required=True)
    erun.add_argument("--classifier", choices=classify.KINDS, required=True)
    erun.add_argument("--seed", type=_at_least(0), default=DEFAULT_SEED)
    erun.add_argument("--realizations", type=_at_least(1), default=1)
    erun.add_argument("--catalog")
    erun.add_argument("--artist-folds")
    erun.add_argument("--out")
    erun.set_defaults(func=cmd_eval_run)
    ecompare = eval_sub.add_parser("compare")
    ecompare.add_argument("report_a")
    ecompare.add_argument("report_b")
    ecompare.add_argument("--out")
    ecompare.set_defaults(func=cmd_eval_compare)
    erelabel = eval_sub.add_parser("relabel")
    erelabel.add_argument("--catalog", required=True)
    erelabel.add_argument("--predictions", required=True,
                          help="report JSON from 'eval run'")
    erelabel.add_argument("--out")
    erelabel.set_defaults(func=cmd_eval_relabel)

    report = sub.add_parser("report", help="summary reports")
    report_sub = report.add_subparsers(dest="subcommand", required=True)
    rperfect = report_sub.add_parser("perfect")
    rperfect.add_argument("--catalog", required=True)
    rperfect.add_argument("--format", choices=("text", "json"), default="text")
    rperfect.add_argument("--out")
    rperfect.set_defaults(func=cmd_report_perfect)

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
