"""The benchmark's workloads: inputs, the timed command sequence, checks.

Every command runs in-process through ``cli.dispatch``. A command counts
as failed when it raises, exits non-zero, fails its output check, or
writes an output whose bytes differ from the first repetition's.
"""

import shutil
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from corpusaudit import cli

from . import checks
from .inputs import CLIP_SECONDS, GENRES, HOP, SAMPLE_RATE, make_audio_corpus, make_eval_inputs

# feature extraction's framing, from which the expected CSV shape follows
FRAME = 1024
TEXTURE_FRAMES = 130
TEXTURE_DIMS = 32


class Runner:
    """Runs and times CLI commands, checks their outputs, counts failures."""

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def command(self, argv, outputs=(), check=None) -> float:
        """Run one command; return its wall time in seconds."""
        argv = [str(a) for a in argv]
        name = "cli." + "_".join(argv[:2])
        problems = []
        span_cm = self.tracer.span(name) if self.tracer is not None else nullcontext()
        start = time.perf_counter()
        with span_cm as span:
            try:
                rc = cli.dispatch(argv)
            except Exception:  # a crash is a failed operation, not a failed run
                rc = None
                problems.append(f"{name}: raised\n{traceback.format_exc(limit=4)}")
        elapsed = time.perf_counter() - start
        if rc != 0 and rc is not None:
            problems.append(f"{name}: exit {rc}")
        if not problems and check is not None:
            problems += check()
        for path in outputs:
            if not Path(path).is_file():
                problems.append(f"{name}: no output {Path(path).name}")
                continue
            d = checks.digest(path)
            first = self.digests.setdefault(Path(path).name, d)
            if d != first:
                problems.append(f"{name}: {Path(path).name} differs from the first repetition")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
            if span is not None:
                span.counters["failed"] = 1
        return elapsed


def _n_windows(duration):
    frames = (int(duration * SAMPLE_RATE) - FRAME) // HOP + 1
    return frames // TEXTURE_FRAMES


class Ingest:
    """Cold ``audit dupes`` then ``features extract`` over a small audio corpus.

    Few clips, so per-clip work (decode, STFT, peaks, hashes, MFCC, cache
    and CSV writes) outweighs pair matching, and nothing is classified.
    """

    name = "ingest"

    def __init__(self, clips=24, duration=CLIP_SECONDS):
        self.clips = clips
        self.duration = duration

    def setup(self, root: Path, seed: int):
        self.inp = make_audio_corpus(root / "in", [seed, 1], self.clips, self.duration)
        self.out = root / "out"
        self.out.mkdir()

    def rep(self, run: Runner) -> dict:
        inp, cache = self.inp, self.out / "fp.bin"
        dupes, feats = self.out / "dupes.csv", self.out / "features.csv"
        cache.unlink(missing_ok=True)
        audit_s = run.command(
            ["audit", "dupes", "--metadata", inp.metadata, "--audio-dir", inp.audio_dir,
             "--cache", cache, "--out", dupes], outputs=(dupes, cache),
            check=lambda: (checks.check_dupes(dupes, inp.ids, checks.THRESHOLD)
                           + checks.check_nonempty(cache, "cache")))
        extract_s = run.command(
            ["features", "extract", "--metadata", inp.metadata, "--audio-dir", inp.audio_dir,
             "--out", feats], outputs=(feats,),
            check=lambda: checks.check_features(feats, inp.ids, _n_windows(self.duration),
                                                TEXTURE_DIMS))
        return {"audit_s": audit_s, "extract_s": extract_s}

    def outcome(self, stages: dict) -> dict:
        """Workload metrics as name -> (value, unit), from stage medians."""
        return {"audit_s": (stages["audit_s"], "s"),
                "extract_s": (stages["extract_s"], "s"),
                "clips_per_s": (self.clips / sum(stages.values()), "1/s"),
                **_dupe_quality(self.out / "dupes.csv", self.out / "fp.bin", self.inp)}

    def sizes(self) -> dict:
        return {"clips": self.clips, "clip_seconds": self.duration,
                "planted_pairs": len(self.inp.planted_pairs)}


def _dupe_quality(dupes, cache, inp) -> dict:
    found = {(a, b) for a, b, _ in checks.read_dupe_pairs(dupes)}
    return {"cache_bytes": (Path(cache).stat().st_size, "bytes"),
            "dupe_recall": (len(found & inp.planted_pairs) / len(inp.planted_pairs), "ratio"),
            "dupe_false_pairs": (len(found - inp.planted_pairs), "count")}


class Reaudit:
    """Warm ``audit dupes`` over a larger corpus whose cache setup built.

    Pair matching and the cache read are nearly all of the work; no peaks,
    hashes or MFCCs are computed.
    """

    name = "reaudit"

    def __init__(self, clips=36, duration=CLIP_SECONDS):
        self.clips = clips
        self.duration = duration

    def setup(self, root: Path, seed: int):
        self.inp = make_audio_corpus(root / "in", [seed, 2], self.clips, self.duration)
        self.out = root / "out"
        self.out.mkdir()
        self.cold = self.out / "dupes_cold.csv"
        rc = cli.dispatch(["audit", "dupes", "--metadata", str(self.inp.metadata),
                           "--audio-dir", str(self.inp.audio_dir),
                           "--cache", str(self.out / "fp.bin"), "--out", str(self.cold)])
        if rc != 0:
            raise RuntimeError(f"cold audit in setup exited {rc}")

    def rep(self, run: Runner) -> dict:
        inp, dupes = self.inp, self.out / "dupes.csv"

        def check():
            problems = checks.check_dupes(dupes, inp.ids, checks.THRESHOLD)
            if dupes.read_bytes() != self.cold.read_bytes():
                problems.append("dupes: warm audit differs from the cold audit")
            return problems

        audit_s = run.command(
            ["audit", "dupes", "--metadata", inp.metadata, "--audio-dir", inp.audio_dir,
             "--cache", self.out / "fp.bin", "--out", dupes], outputs=(dupes,), check=check)
        return {"audit_s": audit_s}

    def outcome(self, stages: dict) -> dict:
        # pairs covered, not pairs scored, so an index stays comparable
        pairs = self.clips * (self.clips - 1) / 2
        return {"audit_s": (stages["audit_s"], "s"),
                "pairs_per_s": (pairs / stages["audit_s"], "1/s"),
                **_dupe_quality(self.out / "dupes.csv", self.out / "fp.bin", self.inp)}

    def sizes(self) -> dict:
        return {"clips": self.clips, "clip_seconds": self.duration,
                "pairs": self.clips * (self.clips - 1) // 2,
                "planted_pairs": len(self.inp.planted_pairs)}


class EvalGrid:
    """Label audit, catalog and the st/st-prime/af x nn/md/mmd experiment grid.

    Reads a GTZAN-scale feature CSV; no audio or fingerprint work.
    """

    name = "eval_grid"
    SCHEMES = ("st", "st-prime", "af")
    CLASSIFIERS = ("nn", "md", "mmd")

    def __init__(self, per_label=100):
        self.per_label = per_label

    def setup(self, root: Path, seed: int):
        self.inp = make_eval_inputs(root / "in", [seed, 3], per_label=self.per_label)
        self.out = root / "out"
        self.out.mkdir()

    def _report(self, scheme, kind):
        return self.out / f"report_{scheme}_{kind}.json"

    def rep(self, run: Runner) -> dict:
        inp, out = self.inp, self.out
        labels = GENRES
        tagged = [eid for eid in inp.ids if inp.artist[eid] is not None]
        labels_csv, catalog = out / "labels.csv", out / "catalog.json"
        stages = {"labels_s": run.command(
            ["audit", "labels", "--metadata", inp.metadata, "--tags", inp.tags,
             "--out", labels_csv], outputs=(labels_csv,),
            check=lambda: checks.check_labels(labels_csv, tagged, labels))}
        stages["catalog_s"] = run.command(
            ["catalog", "build", "--metadata", inp.metadata, "--tags", inp.tags,
             "--dupes", inp.dupes, "--distortions", inp.distortions, "--out", catalog],
            outputs=(catalog,),
            check=lambda: checks.check_catalog(catalog, inp.ids, inp.exclusions))
        eval_s = 0.0
        for scheme in self.SCHEMES:
            for kind in self.CLASSIFIERS:
                report = self._report(scheme, kind)
                argv = ["eval", "run", "--metadata", inp.metadata, "--features", inp.features,
                        "--scheme", scheme, "--classifier", kind, "--seed", 7,
                        "--realizations", 1, "--out", report]
                if scheme == "st-prime":
                    argv += ["--catalog", catalog]
                eval_s += run.command(
                    argv, outputs=(report,),
                    check=lambda r=report, s=scheme: checks.check_eval_report(
                        r, s, inp.ids, labels, inp.artist, inp.exclusions))
        stages["eval_s"] = eval_s
        compare, relabel, perfect = out / "compare.json", out / "relabel.json", out / "perfect.txt"
        stages["compare_s"] = run.command(
            ["eval", "compare", self._report("st", "nn"), self._report("st", "mmd"),
             "--out", compare], outputs=(compare,), check=lambda: checks.check_compare(compare))
        stages["relabel_s"] = run.command(
            ["eval", "relabel", "--catalog", catalog, "--predictions",
             self._report("st", "nn"), "--out", relabel], outputs=(relabel,),
            check=lambda: checks.check_relabel(relabel, catalog))
        stages["perfect_s"] = run.command(
            ["report", "perfect", "--catalog", catalog, "--format", "text", "--out", perfect],
            outputs=(perfect,), check=lambda: checks.check_perfect_text(perfect, labels))
        return stages

    def outcome(self, stages: dict) -> dict:
        predictions = sum(checks.count_predictions(self._report(s, k))
                          for s in self.SCHEMES for k in self.CLASSIFIERS)
        flagged = checks.flagged_ids(self.out / "labels.csv")
        planted = self.inp.planted_mislabels
        return {"eval_s": (stages["eval_s"], "s"),
                "excerpts_per_s": (predictions / stages["eval_s"], "1/s"),
                "test_excerpts": (predictions, "count"),
                "label_recall": (len(flagged & planted) / len(planted), "ratio")}

    def sizes(self) -> dict:
        return dict(self.inp.sizes)


WORKLOADS = {"ingest": Ingest, "reaudit": Reaudit, "eval_grid": EvalGrid}

# small enough for the benchmark's own tests
TINY = {"ingest": {"clips": 6, "duration": 4.0},
        "reaudit": {"clips": 6, "duration": 4.0},
        "eval_grid": {"per_label": 14}}


def make(name: str, tiny: bool = False):
    return WORKLOADS[name](**(TINY[name] if tiny else {}))


def reset_dir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
