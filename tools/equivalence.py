"""Run every CLI command and demo on two source trees and report where they differ.

Usage::

    python3 tools/equivalence.py PARENT_TREE CHANGE_TREE [--work DIR]

Each tree is a checkout of this repository; its ``src/`` and ``demos/`` are run.
The inputs are built once, by this checkout's ``perfbench.inputs`` at seeds 5 and
8 (with the benchmark's seed keys): a 16-clip audio corpus of 30 s clips with
planted re-cuts, and the eval-grid files (1000 excerpts, tags, dupes, distortions).
To these the tool adds two manual recording groups, an artist-fold file and, for
seed 5, the 16-bit clips rewritten as IEEE float32 and float64 WAV files, whose
RIFF header it writes itself.

Every command runs in a fresh interpreter, with ``PYTHONPATH`` set to the tree's
``src``, and writes into a directory of its own; a command that reads an earlier
command's output reads that tree's own. The commands are ``audit dupes`` cold and
warm (also from a cache that holds ids the metadata lacks) and ``features extract``
at ``AUDIT_THREADS`` 1 and 2, cold ``audit dupes`` and ``features extract`` on the
float WAV files, ``audit labels``, ``catalog build`` (with the
recording groups, and again with them alone, without the dupes) and ``show``,
``partition make`` for each scheme, ``eval run`` for each scheme and classifier at
1 and 2 BLAS threads (and for ``st`` from a feature CSV without its binary
companion), ``partition make`` for ``af`` and ``af-prime`` and ``eval run`` for
``af`` with the artist folds, ``eval compare``, ``eval relabel``, ``report
perfect`` as text and JSON, and the three demos. Both trees run in the same
directory, one after the other, so output paths are the same for both.

For each command the exit code, stdout, stderr (the tree's path replaced by
``<tree>``) and the SHA-256 of every file it wrote are compared, and one line is
printed per difference. The exit status is 1 if anything differs, else 0.

Digests depend on the build's FFT and BLAS, so only two trees run on one machine
give a sound comparison; no golden digests are kept.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
import time
import wave
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.inputs import SAMPLE_RATE, make_audio_corpus, make_eval_inputs  # noqa: E402

AUDIO_CLIPS = 16
SCHEMES = ("st", "st-prime", "af", "af-prime")
CLASSIFIERS = ("nn", "md", "mmd")
THREADS = (1, 2)
SEEDS = (5, 8)
EVAL_SEED = 7
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FLOAT_SEED = 5
FLOAT_TYPES = {"float32": "<f4", "float64": "<f8"}
WAVE_FORMAT_IEEE_FLOAT = 3


def build_inputs(root: Path, seed: int) -> dict[str, Path]:
    """The audio corpus and eval-grid files of one seed, plus the audio metadata
    without its first three rows and reversed, a copy of the feature CSV with no
    companion, the recording groups and artist folds of ``manual_evidence`` and, at
    ``FLOAT_SEED``, a directory of the clips as float WAV files per ``FLOAT_TYPES``."""
    audio = make_audio_corpus(root / "audio", [seed, 1], AUDIO_CLIPS)
    floats = {}
    if seed == FLOAT_SEED:
        for name, dtype in FLOAT_TYPES.items():
            floats[name] = root / "audio" / name
            floats[name].mkdir()
            for clip in sorted(audio.audio_dir.glob("*.wav")):
                write_float_wav(floats[name] / clip.name, read_pcm16(clip), dtype)
    header, *rows = audio.metadata.read_text(encoding="utf-8").splitlines()
    subset = root / "audio" / "subset.csv"
    subset.write_text("\n".join([header, *reversed(rows[3:])]) + "\n", encoding="utf-8")
    ev = make_eval_inputs(root / "eval", [seed, 3])
    plain = root / "eval" / "plain" / "features.csv"
    plain.parent.mkdir()
    shutil.copyfile(ev.features, plain)
    recordings, artist_folds = root / "eval" / "recordings.json", root / "eval" / "folds.json"
    for path, value in zip((recordings, artist_folds), manual_evidence(ev.metadata, ev.dupes)):
        path.write_text(json.dumps(value), encoding="utf-8")
    return {"metadata": audio.metadata, "audio": audio.audio_dir, "subset": subset,
            "eval_metadata": ev.metadata, "features": ev.features, "plain": plain,
            "tags": ev.tags, "dupes": ev.dupes, "distortions": ev.distortions,
            "recordings": recordings, "artist_folds": artist_folds, "floats": floats}


def read_pcm16(path: Path) -> np.ndarray:
    """A 16-bit mono WAV file's samples scaled to [-1, 1), as ``load_audio`` scales them."""
    with wave.open(str(path), "rb") as w:
        return np.frombuffer(w.readframes(w.getnframes()), dtype="<i2") / 32768


def write_float_wav(path: Path, samples: np.ndarray, dtype: str) -> None:
    """A mono ``SAMPLE_RATE`` RIFF WAVE file of IEEE float samples of ``dtype``: the
    16-byte ``fmt `` chunk of a plain format tag, then the ``data`` chunk."""
    data = np.asarray(samples, dtype=dtype).tobytes()
    width = np.dtype(dtype).itemsize
    fmt = struct.pack("<HHIIHH", WAVE_FORMAT_IEEE_FLOAT, 1, SAMPLE_RATE,
                      SAMPLE_RATE * width, width, 8 * width)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(data)) + b"WAVE"
                     + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                     + b"data" + struct.pack("<I", len(data)) + data)


def manual_evidence(metadata: Path, dupes: Path) -> tuple[list, dict]:
    """Recording groups and artist folds for the eval-grid corpus.

    The groups are the dupes CSV's first pair, which share a title (so without the
    dupes, only this group keeps their version group out of the catalog), and the
    first excerpts of the first label's first two artists (so it joins their atoms
    under ``af``). The folds pin the first of those artists to fold 1 and the
    label's third artist to fold 2."""
    with open(metadata, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    with open(dupes, newline="", encoding="utf-8") as fh:
        first = next(csv.DictReader(fh))
    first_of = {}  # artist -> its first excerpt, in metadata order
    for row in rows:
        if row["label"] == rows[0]["label"] and row["artist"]:
            first_of.setdefault(row["artist"], row["id"])
    artists = list(first_of)
    groups = [[first["id_a"], first["id_b"]], [first_of[artists[0]], first_of[artists[1]]]]
    return groups, {"fold1": [artists[0]], "fold2": [artists[2]]}


def commands(seed: int, inp: dict[str, Path]) -> list[tuple[str, list, dict]]:
    """(name, argv after the interpreter, extra environment) of one seed's CLI commands.
    In an argument, ``{here}`` stands for the command's own output directory and
    ``{other}`` for that of the seed's command ``other``."""
    cli = ["-m", "corpusaudit.cli"]
    out = []

    def add(name, argv, threads=1, audit_threads=1):
        env = {"AUDIT_THREADS": str(audit_threads),
               **{v: str(threads) for v in THREAD_VARIABLES}}
        out.append((f"seed {seed} {name}", [*cli, *map(str, argv)], env))

    for k in THREADS:
        audio = ["--audio-dir", inp["audio"]]
        add(f"audit-dupes-cold-t{k}", ["audit", "dupes", "--metadata", inp["metadata"], *audio,
                                       "--cache", "{here}/fp.bin", "--out", "{here}/dupes.csv"],
            audit_threads=k)
        cache = f"{{audit-dupes-cold-t{k}}}/fp.bin"
        for name, metadata in (("warm", inp["metadata"]), ("warm-subset", inp["subset"])):
            add(f"audit-dupes-{name}-t{k}", ["audit", "dupes", "--metadata", metadata, *audio,
                                             "--cache", cache, "--out", "{here}/dupes.csv"],
                audit_threads=k)
        add(f"features-extract-t{k}", ["features", "extract", "--metadata", inp["metadata"],
                                       *audio, "--out", "{here}/features.csv"],
            audit_threads=k)
    for name, audio_dir in inp["floats"].items():
        audio = ["--metadata", inp["metadata"], "--audio-dir", audio_dir]
        add(f"audit-dupes-{name}", ["audit", "dupes", *audio, "--cache", "{here}/fp.bin",
                                    "--out", "{here}/dupes.csv"])
        add(f"features-extract-{name}", ["features", "extract", *audio,
                                         "--out", "{here}/features.csv"])

    metadata = ["--metadata", inp["eval_metadata"]]
    catalog = "{catalog-build}/catalog.json"
    add("audit-labels", ["audit", "labels", *metadata, "--tags", inp["tags"],
                         "--out", "{here}/verdicts.csv"])
    evidence = ["--tags", inp["tags"], "--distortions", inp["distortions"],
                "--recordings", inp["recordings"]]
    add("catalog-build", ["catalog", "build", *metadata, *evidence, "--dupes", inp["dupes"],
                          "--out", "{here}/catalog.json"])
    add("catalog-build-manual", ["catalog", "build", *metadata, *evidence,
                                 "--out", "{here}/catalog.json"])
    add("catalog-show", ["catalog", "show", "--catalog", catalog, "--out", "{here}/show.txt"])
    for scheme in SCHEMES:
        with_catalog = [] if scheme == "st" else ["--catalog", catalog]
        add(f"partition-make-{scheme}", ["partition", "make", *metadata, "--scheme", scheme,
                                         "--seed", EVAL_SEED, *with_catalog,
                                         "--out", "{here}/partition.json"])
        realizations = ["--realizations", 2] if scheme.startswith("st") else []
        for kind in CLASSIFIERS:
            run = ["eval", "run", *metadata, "--scheme", scheme, "--classifier", kind,
                   "--seed", EVAL_SEED, *realizations, *with_catalog,
                   "--out", "{here}/report.json"]
            for k in THREADS:
                add(f"eval-run-{scheme}-{kind}-blas{k}", [*run, "--features", inp["features"]],
                    threads=k)
            if scheme == "st":
                add(f"eval-run-st-{kind}-csv", [*run, "--features", inp["plain"]])
    folds = ["--catalog", catalog, "--artist-folds", inp["artist_folds"]]
    for scheme in ("af", "af-prime"):
        add(f"partition-make-{scheme}-pinned",
            ["partition", "make", *metadata, "--scheme", scheme, *folds,
             "--out", "{here}/partition.json"])
    add("eval-run-af-nn-pinned", ["eval", "run", *metadata, "--scheme", "af", "--classifier",
                                  "nn", *folds, "--features", inp["features"],
                                  "--out", "{here}/report.json"])
    report = "{eval-run-st-nn-blas1}/report.json"
    add("eval-compare", ["eval", "compare", report, "{eval-run-st-md-blas1}/report.json",
                         "--out", "{here}/compare.json"])
    add("eval-relabel", ["eval", "relabel", "--catalog", catalog, "--predictions", report,
                         "--out", "{here}/relabel.json"])
    for form in ("text", "json"):
        add(f"report-perfect-{form}", ["report", "perfect", "--catalog", catalog,
                                       "--format", form, "--out", f"{{here}}/perfect.{form}"])
    return out


def demo_commands(tree: Path) -> list[tuple[str, list, dict]]:
    return [(f"demo {demo.stem}", [str(demo)], {v: "1" for v in THREAD_VARIABLES})
            for demo in sorted((tree / "demos").glob("*.py"))]


def run_tree(tree: Path, cmds, run_dir: Path) -> dict[str, tuple]:
    """Each command's (exit code, stdout, stderr, {file: SHA-256}) on ``tree``."""
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "AUDIT_THREADS")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for name, argv, extra in cmds:
        here = run_dir / name.replace(" ", "-")
        here.mkdir(parents=True)
        prefix = name.rsplit(" ", 1)[0]  # "seed 5": its commands' directories
        argv = [a.replace("{here}", str(here)) for a in argv]
        argv = [_resolve(a, run_dir, prefix) for a in argv]
        done = subprocess.run([sys.executable, *argv], cwd=here, env={**env, **extra},
                              capture_output=True, text=True, timeout=600)
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(here.iterdir()) if p.is_file()}
        results[name] = (done.returncode, done.stdout.replace(str(tree), "<tree>"),
                         done.stderr.replace(str(tree), "<tree>"), files)
    return results


def _resolve(arg: str, run_dir: Path, prefix: str) -> str:
    """``{command}`` in ``arg`` -> that command's directory under ``run_dir``."""
    if arg.startswith("{") and "}" in arg:
        name, rest = arg[1:].split("}", 1)
        return str(run_dir / f"{prefix}-{name}".replace(" ", "-")) + rest
    return arg


def differences(a: dict, b: dict) -> list[str]:
    lines = [f"{name}: only in the {side} tree"
             for side, one, other in (("parent", a, b), ("change", b, a))
             for name in one if name not in other]
    for name in (name for name in a if name in b):
        (code_a, out_a, err_a, files_a), (code_b, out_b, err_b, files_b) = a[name], b[name]
        if code_a != code_b:
            lines.append(f"{name}: exit code {code_a} != {code_b}")
        if out_a != out_b:
            lines.append(f"{name}: stdout differs")
        if err_a != err_b:
            lines.append(f"{name}: stderr differs")
        for file in sorted(set(files_a) | set(files_b)):
            da, db = files_a.get(file, "missing"), files_b.get(file, "missing")
            if da != db:
                lines.append(f"{name}: {file} sha256 {da[:16]} != {db[:16]}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    parser.add_argument("change", type=Path, help="the tree under test")
    parser.add_argument("--work", type=Path,
                        help="an empty directory to keep inputs and outputs in "
                             "(default: a temporary one, removed at the end)")
    args = parser.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    for tree in trees:
        if not (tree / "src" / "corpusaudit" / "cli.py").is_file():
            parser.error(f"{tree} is not a corpusaudit tree")
    start = time.perf_counter()
    work = args.work or Path(tempfile.mkdtemp(prefix="equivalence-"))
    try:
        cmds = []
        for seed in SEEDS:
            cmds += commands(seed, build_inputs(work / "inputs" / str(seed), seed))
        results = []
        for i, tree in enumerate(trees):
            # the same path for both trees, so outputs that name a path agree
            results.append(run_tree(tree, cmds + demo_commands(tree), work / "run"))
            (work / "run").rename(work / ("parent", "change")[i])
        diffs = differences(*results)
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for line in diffs:
        print(line)
    # a command that fails on both trees agrees, but shows nothing
    failed = [name for name, (code, *_) in results[0].items() if code != 0]
    for name in failed:
        print(f"note: {name} exited non-zero on the parent tree", file=sys.stderr)
    print(f"{len(results[0])} commands on each tree ({len(failed)} exited non-zero on the "
          f"parent tree), {len(diffs)} differences, {time.perf_counter() - start:.0f} s",
          file=sys.stderr)
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
