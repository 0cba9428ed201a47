"""Which layer functions the traced run wraps, and the per-layer metrics.

Metric names are ``<module>.<function>.calls`` and ``.self_s`` plus the
counters below; ``BENCHMARK.json`` lists the same names as ``PER_LAYER``.
Self time is a span's duration minus the time of its child spans, so the
self times of all spans add up to the time the spans cover.
"""

import os

import numpy as np

from .checks import THRESHOLD

CLI_COMMANDS = ("audit_dupes", "features_extract", "audit_labels", "catalog_build",
                "eval_run", "eval_compare", "eval_relabel", "report_perfect")

LAYER_MODULES = ("corpus", "features", "fingerprint", "tagscore", "faults",
                 "evaluate", "classify", "cli")


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _audio_bytes(span, args, kwargs, result):
    span.counters["bytes"] = os.path.getsize(_first_arg(args, kwargs, "excerpt").audio_path)


def _csv_bytes(span, args, kwargs, result):
    span.counters["bytes"] = os.path.getsize(_first_arg(args, kwargs, "path"))


def _peaks(span, args, kwargs, result):
    span.counters["peaks"] = len(result.peaks)


def _hashes(span, args, kwargs, result):
    span.counters["hashes"] = len(result.hashes)


def _match(span, args, kwargs, result):
    span.counters["probes"] = 3 * len(_first_arg(args, kwargs, "a").hashes)
    span.counters["over"] = int(result.score >= THRESHOLD)


def _nn_distances(span, args, kwargs, result):
    model = _first_arg(args, kwargs, "model")
    vectors = args[1] if len(args) > 1 else kwargs["vectors"]
    span.counters["distances"] = int(np.atleast_2d(vectors).shape[0] * model.train_x.shape[0])


# (module, function) -> counter callback or None
TARGETS = {
    ("corpus", "load_audio"): _audio_bytes,
    ("corpus", "load_metadata"): None,
    ("corpus", "load_tags"): None,
    ("features", "stft_magnitude"): None,
    ("features", "frame_features"): None,
    ("features", "texture_vectors"): None,
    ("features", "excerpt_features"): None,
    ("features", "write_feature_cache"): _csv_bytes,
    ("features", "read_feature_cache"): None,
    ("features", "fit_normalization"): None,
    ("features", "apply_normalization"): None,
    ("fingerprint", "find_peaks"): _peaks,
    ("fingerprint", "compute_fingerprint"): _hashes,
    ("fingerprint", "match"): _match,
    ("fingerprint", "match_all"): None,
    ("fingerprint", "write_cache"): None,
    ("fingerprint", "read_cache"): None,
    ("tagscore", "label_profile"): None,
    ("tagscore", "score_matrix"): None,
    ("tagscore", "detect_mislabelings"): None,
    ("faults", "build_catalog"): None,
    ("faults", "save_catalog"): None,
    ("faults", "load_catalog"): None,
    ("faults", "perfect_statistics"): None,
    ("evaluate", "make_partition"): None,
    ("evaluate", "run_experiment"): None,
    ("evaluate", "figures_of_merit"): None,
    ("evaluate", "significance_test"): None,
    ("evaluate", "accuracy_summary"): None,
    ("classify", "train"): None,
    ("classify", "classify_excerpt"): None,
    ("classify", "nearest_labels"): _nn_distances,
    ("classify", "log_posteriors"): None,
}


def _spec():
    out = []

    def timed(fn, calls=True):
        if calls:
            out.append((f"{fn}.calls", "count", "lower"))
        out.append((f"{fn}.self_s", "s", "lower"))

    timed("corpus.load_audio")
    out.append(("corpus.decode_mb_per_s", "MB/s", "higher"))
    timed("corpus.load_metadata", calls=False)
    timed("corpus.load_tags", calls=False)
    timed("features.stft_magnitude")
    timed("features.frame_features")
    timed("features.texture_vectors", calls=False)
    timed("features.write_feature_cache", calls=False)
    out.append(("features.csv_bytes", "bytes", "lower"))
    timed("features.read_feature_cache")
    timed("features.apply_normalization")
    timed("features.fit_normalization", calls=False)
    timed("fingerprint.find_peaks")
    out.append(("fingerprint.peaks", "count", "lower"))
    timed("fingerprint.compute_fingerprint")
    out.append(("fingerprint.hashes", "count", "lower"))
    out.append(("fingerprint.compute_fingerprint.overlap", "ratio", "higher"))
    timed("fingerprint.match")
    timed("fingerprint.match_all", calls=False)
    out.append(("fingerprint.hash_probes", "count", "lower"))
    out.append(("fingerprint.pairs_over_threshold", "count", "higher"))
    out.append(("fingerprint.match_yield", "ratio", "higher"))
    timed("fingerprint.write_cache", calls=False)
    timed("fingerprint.read_cache", calls=False)
    for fn in ("label_profile", "score_matrix", "detect_mislabelings"):
        timed(f"tagscore.{fn}", calls=False)
    for fn in ("build_catalog", "save_catalog", "load_catalog", "perfect_statistics"):
        timed(f"faults.{fn}")
    for fn in ("make_partition", "run_experiment", "figures_of_merit", "significance_test"):
        timed(f"evaluate.{fn}")
    for fn in ("train", "classify_excerpt", "nearest_labels", "log_posteriors"):
        timed(f"classify.{fn}")
    out.append(("classify.nn_distances", "count", "lower"))
    for cmd in CLI_COMMANDS:
        timed(f"cli.{cmd}")
        out.append((f"cli.{cmd}.failed", "count", "lower"))
    for module in LAYER_MODULES:
        out.append((f"{module}.self_s", "s", "lower"))
    out += [("trace.wall_s", "s", "lower"),
            ("trace.untraced_wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.coverage", "ratio", "higher"),
            ("trace.spans", "count", "lower")]
    return out


# (name, unit, better), in the order BENCHMARK.json lists them
PER_LAYER = _spec()


def per_layer_metrics(spans_with_self, traced_wall_s, untraced_wall_s):
    """Reduce one traced command sequence to the ``PER_LAYER`` values."""
    calls, self_s, counters = {}, {}, {}
    for span, own in spans_with_self:
        calls[span.name] = calls.get(span.name, 0) + 1
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        for key, value in span.counters.items():
            counters[(span.name, key)] = counters.get((span.name, key), 0) + value

    def count(name, key):
        return counters.get((name, key), 0)

    # worker span time over the fingerprinting interval of each audit
    fp_busy = fp_wall = 0.0
    for span, _ in spans_with_self:
        if span.name != "cli.audit_dupes":
            continue
        inner = [s for s, _ in spans_with_self if s.name == "fingerprint.compute_fingerprint"
                 and span.start <= s.start and s.end <= span.end]
        if inner:
            fp_busy += sum(s.end - s.start for s in inner)
            fp_wall += max(s.end for s in inner) - min(s.start for s in inner)

    derived = {
        "corpus.decode_mb_per_s": (count("corpus.load_audio", "bytes") / 1e6
                                   / self_s["corpus.load_audio"]
                                   if self_s.get("corpus.load_audio") else 0.0),
        "features.csv_bytes": count("features.write_feature_cache", "bytes"),
        "fingerprint.peaks": count("fingerprint.find_peaks", "peaks"),
        "fingerprint.hashes": count("fingerprint.compute_fingerprint", "hashes"),
        "fingerprint.compute_fingerprint.overlap": fp_busy / fp_wall if fp_wall else 0.0,
        "fingerprint.hash_probes": count("fingerprint.match", "probes"),
        "fingerprint.pairs_over_threshold": count("fingerprint.match", "over"),
        "fingerprint.match_yield": (count("fingerprint.match", "over")
                                    / calls["fingerprint.match"]
                                    if calls.get("fingerprint.match") else 0.0),
        "classify.nn_distances": count("classify.nearest_labels", "distances"),
        "trace.wall_s": traced_wall_s,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.coverage": sum(self_s.values()) / traced_wall_s if traced_wall_s else 0.0,
        "trace.spans": len(spans_with_self),
    }
    for module in LAYER_MODULES:
        derived[f"{module}.self_s"] = sum(v for k, v in self_s.items()
                                          if k.startswith(module + "."))
    for cmd in CLI_COMMANDS:
        derived[f"cli.{cmd}.failed"] = count(f"cli.{cmd}", "failed")

    out = {}
    for name, _, _ in PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".calls"):
            out[name] = calls.get(name[:-len(".calls")], 0)
        else:
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
    return out
