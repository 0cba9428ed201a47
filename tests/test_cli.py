import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from corpusaudit import cli, fingerprint
from corpusaudit.cli import dispatch
from corpusaudit.faults import load_catalog, perfect_confusion, perfect_statistics
from corpusaudit.features import companion_path
from corpusaudit.fingerprint import read_cache, write_cache
from corpusaudit.synth import delayed_copy, tone_cloud

SR = 22050


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small on-disk corpus: 10 clips, 1 planted duplicate, 1 mislabeling."""
    root = tmp_path_factory.mktemp("cli-corpus")
    audio = root / "audio"
    audio.mkdir()

    rng = np.random.default_rng(99)
    labels = ("amber", "slate")
    rows = []
    signals = {}
    for label in labels:
        for i in range(5):
            eid = f"{label}.{i:03d}"
            rows.append([eid, label, f"Artist {label.title()} {i}",
                         f"Song {label.title()} {i}"])
            signals[eid] = tone_cloud(rng, duration=8.0)
    # amber.004 is a delayed, rescaled copy of amber.000
    signals["amber.004"] = delayed_copy(signals["amber.000"], 0.4, 0.8, SR)
    for eid, sig in signals.items():
        wavfile.write(audio / f"{eid}.wav", SR, sig.astype(np.float32))

    metadata = root / "metadata.csv"
    with metadata.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "artist", "title"])
        writer.writerows(rows)

    entries = []
    for label, tag in (("amber", "warm"), ("slate", "cool")):
        for i in range(5):
            eid = f"{label}.{i:03d}"
            # slate.003 carries amber-looking tags: a planted mislabeling
            top = "warm" if eid == "slate.003" else tag
            entries.append({"id": eid, "source": "song",
                            "tags": [{"tag": top, "count": 90},
                                     {"tag": "music", "count": 5}]})
    tags = root / "tags.json"
    tags.write_text(json.dumps(entries))
    return root


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# (argv to the parser, the flags its --help must name): the root, each group, each command
PARSER_PATHS = [([], [])] + [
    path for command, _, subcommands in cli.COMMANDS
    for path in [([command], [])] + [([command, name], [flag for flag, _ in arguments])
                                     for name, _, _, arguments in subcommands]]


def test_parser_paths_cover_every_command():
    assert len(PARSER_PATHS) == 17


@pytest.mark.parametrize("path, flags", [
    pytest.param(path, flags, id=" ".join(path) or "root") for path, flags in PARSER_PATHS])
def test_help_exits_zero(path, flags, capsys):
    assert dispatch(path + ["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: {' '.join(['corpusaudit', *path])} ")
    assert all(flag in out for flag in flags)


def test_missing_required_argument_exits_two():
    assert dispatch(["audit", "dupes"]) == 2


def test_audit_dupes_finds_planted_pair(workspace, tmp_path, monkeypatch):
    out = tmp_path / "dupes.csv"
    cache = tmp_path / "prints.bin"
    code = dispatch(["audit", "dupes",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--audio-dir", str(workspace / "audio"),
                     "--cache", str(cache),
                     "--out", str(out)])
    assert code == 0
    rows = read_csv_rows(out)
    assert [(r["id_a"], r["id_b"]) for r in rows] == [("amber.000", "amber.004")]
    assert float(rows[0]["score"]) > 0.25
    assert cache.exists()

    # rerun from the cache, which fingerprints nothing: byte-identical output
    first = out.read_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("a warm audit fingerprinted a clip")
    monkeypatch.setattr(fingerprint, "compute_fingerprint", refuse)
    out2 = tmp_path / "dupes2.csv"
    assert dispatch(["audit", "dupes",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--audio-dir", str(workspace / "audio"),
                     "--cache", str(cache),
                     "--out", str(out2)]) == 0
    assert out2.read_bytes() == first


def test_audit_dupes_strict_exit(workspace, tmp_path):
    code = dispatch(["audit", "dupes",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--audio-dir", str(workspace / "audio"),
                     "--cache", str(tmp_path / "prints.bin"),
                     "--strict",
                     "--out", str(tmp_path / "dupes.csv")])
    assert code == 1


def test_audit_dupes_high_threshold_empty(workspace, tmp_path):
    out = tmp_path / "dupes.csv"
    code = dispatch(["audit", "dupes",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--audio-dir", str(workspace / "audio"),
                     "--threshold", "0.999",
                     "--strict",
                     "--out", str(out)])
    assert code == 0
    assert read_csv_rows(out) == []


def test_audit_dupes_at_threshold_zero_or_below_writes_every_pair(tmp_path):
    rng = np.random.default_rng(3)
    signals = {"a.000": tone_cloud(rng, duration=3.0), "a.001": tone_cloud(rng, duration=3.0),
               "b.000": np.zeros(3 * SR)}  # silence: no hashes, so no hits with any clip
    signals["b.001"] = delayed_copy(signals["a.000"], 0.2, 0.7, SR)
    audio = tmp_path / "audio"
    audio.mkdir()
    for eid, sig in signals.items():
        wavfile.write(audio / f"{eid}.wav", SR, sig.astype(np.float32))
    metadata = tmp_path / "metadata.csv"
    metadata.write_text("id,label,artist,title\n" + "".join(
        f"{eid},{eid[0]},artist {eid},title {eid}\n" for eid in signals))
    outputs = []
    for threshold in ("0", "-1"):
        cache = tmp_path / f"prints{threshold}.bin"
        for run in ("cold", "warm"):
            out = tmp_path / f"dupes{threshold}{run}.csv"
            assert dispatch(["audit", "dupes", "--metadata", str(metadata),
                             "--audio-dir", str(audio), "--cache", str(cache),
                             "--threshold", threshold, "--out", str(out)]) == 0
            outputs.append(out.read_bytes())
    assert outputs == outputs[:1] * 4
    rows = [line.split(",") for line in outputs[0].decode().splitlines()[1:]]
    ids = sorted(signals)
    assert [(a, b) for a, b, _, _ in rows] == [
        (a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    scores = {(a, b): (score, offset) for a, b, score, offset in rows}
    assert all(scores[pair] == ("0.000000", "0") for pair in scores if "b.000" in pair)
    assert float(scores["a.000", "b.001"][0]) > 0.25


def test_audit_dupes_offset_does_not_depend_on_the_metadata_order(tmp_path):
    """``a`` is ``b`` four hops later, so id_a's frames are 4 past id_b's, whichever
    clip the metadata lists first."""
    b = tone_cloud(np.random.default_rng(0), duration=5.0)
    audio = tmp_path / "audio"
    audio.mkdir()
    for eid, sig in (("a", np.roll(b, 4 * 512)), ("b", b)):
        wavfile.write(audio / f"{eid}.wav", SR, sig.astype(np.float32))
    outputs = []
    for order in ("ab", "ba"):
        metadata = tmp_path / f"metadata_{order}.csv"
        metadata.write_text("id,label,artist,title\n" + "".join(f"{eid},x,,\n" for eid in order))
        for threshold in ("0.25", "0"):
            cache = tmp_path / f"prints_{order}{threshold}.bin"
            for run in ("cold", "warm"):
                out = tmp_path / f"dupes_{order}{threshold}{run}.csv"
                assert dispatch(["audit", "dupes", "--metadata", str(metadata),
                                 "--audio-dir", str(audio), "--cache", str(cache),
                                 "--threshold", threshold, "--out", str(out)]) == 0
                outputs.append(out.read_bytes())
    assert outputs == [b"id_a,id_b,score,offset_frames\na,b,1.000000,4\n"] * 8


def test_ids_holding_commas_and_quotes_round_trip(tmp_path):
    """Ids and labels that need CSV quoting come back whole from both audit CSVs."""
    rng = np.random.default_rng(5)
    ids = {"a,0": "amber, warm", "a\"1": "amber, warm", "b,\"0\"": 'slate "cool"',
           "b.1": 'slate "cool"'}
    signals = {eid: tone_cloud(rng, duration=3.0) for eid in ids}
    signals["a\"1"] = delayed_copy(signals["a,0"], 0.2, 0.7, SR)
    audio = tmp_path / "audio"
    audio.mkdir()
    for eid, sig in signals.items():
        wavfile.write(audio / f"{eid}.wav", SR, sig.astype(np.float32))
    metadata = tmp_path / "metadata.csv"
    with metadata.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "artist", "title"])
        writer.writerows([eid, label, f"artist {eid}", ""] for eid, label in ids.items())
    tags = tmp_path / "tags.json"
    tags.write_text(json.dumps([
        {"id": eid, "tags": [{"tag": label.split()[1], "count": 90}, {"tag": "music", "count": 5}]}
        for eid, label in ids.items()]))

    dupes = tmp_path / "dupes.csv"
    assert dispatch(["audit", "dupes", "--metadata", str(metadata), "--audio-dir", str(audio),
                     "--out", str(dupes)]) == 0
    assert [row[:2] for row in csv.reader(dupes.open(newline=""))] == [
        ["id_a", "id_b"], ["a\"1", "a,0"]]
    catalog = tmp_path / "catalog.json"
    assert dispatch(["catalog", "build", "--metadata", str(metadata), "--dupes", str(dupes),
                     "--out", str(catalog)]) == 0
    assert [g.members for g in load_catalog(catalog).repetitions if g.kind == "exact"] == [
        ("a\"1", "a,0")]

    labels = tmp_path / "labels.csv"
    assert dispatch(["audit", "labels", "--metadata", str(metadata), "--tags", str(tags),
                     "--out", str(labels)]) == 0
    rows = list(csv.reader(labels.open(newline="")))
    assert all(len(row) == 8 for row in rows)
    assert sorted((row[0], row[1]) for row in rows[1:]) == sorted(ids.items())


def _audit_dupes(workspace, cache, out):
    return dispatch(["audit", "dupes",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--audio-dir", str(workspace / "audio"),
                     "--cache", str(cache),
                     "--out", str(out)])


def test_audit_dupes_same_bytes_for_any_thread_count(workspace, tmp_path, monkeypatch):
    outputs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AUDIT_THREADS", threads)
        cache, out = tmp_path / f"prints{threads}.bin", tmp_path / f"dupes{threads}.csv"
        assert _audit_dupes(workspace, cache, out) == 0
        outputs.append((out.read_bytes(), cache.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("threads", ["abc", "-3", "1.5", ""])
def test_audit_threads_not_a_count_exits_two(workspace, tmp_path, monkeypatch, capsys, threads):
    monkeypatch.setenv("AUDIT_THREADS", threads)
    out = tmp_path / "dupes.csv"
    assert _audit_dupes(workspace, tmp_path / "prints.bin", out) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "AUDIT_THREADS" in err and repr(threads) in err
    assert not out.exists()


@pytest.mark.parametrize("threads, workers", [("3", 3), (" 2 ", 2), ("0", os.cpu_count() or 1),
                                              (None, os.cpu_count() or 1)])
def test_worker_count_reads_audit_threads(monkeypatch, threads, workers):
    if threads is None:
        monkeypatch.delenv("AUDIT_THREADS", raising=False)
    else:
        monkeypatch.setenv("AUDIT_THREADS", threads)
    assert cli._worker_count() == workers


def _truncate(cache):
    cache.write_bytes(cache.read_bytes()[:-6])


def _drop_slate_002(cache):
    hashsets = read_cache(cache)
    del hashsets["slate.002"]
    write_cache(cache, hashsets)


@pytest.mark.parametrize("damage, needles", [
    (_truncate, ["truncated fingerprint cache"]),
    (_drop_slate_002, ["'slate.002'", "no fingerprints"]),
])
def test_audit_dupes_bad_cache_exits_two(workspace, tmp_path, capsys, damage, needles):
    cache = tmp_path / "prints.bin"
    assert _audit_dupes(workspace, cache, tmp_path / "cold.csv") == 0
    damage(cache)
    damaged = cache.read_bytes()
    capsys.readouterr()
    assert _audit_dupes(workspace, cache, tmp_path / "warm.csv") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    for needle in [str(cache)] + needles:
        assert needle in err
    assert not (tmp_path / "warm.csv").exists()
    assert cache.read_bytes() == damaged


def test_audit_labels_flags_planted_mislabeling(workspace, tmp_path):
    out = tmp_path / "labels.csv"
    code = dispatch(["audit", "labels",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--tags", str(workspace / "tags.json"),
                     "--out", str(out)])
    assert code == 0
    rows = read_csv_rows(out)
    flagged = [r for r in rows if r["rule"] in ("low_own", "high_other")]
    assert [r["id"] for r in flagged] == ["slate.003"]
    assert flagged[0]["best_other_label"] == "amber"


@pytest.fixture(scope="module")
def catalog_path(workspace, tmp_path_factory):
    tmp = tmp_path_factory.mktemp("catalog")
    dupes = tmp / "dupes.csv"
    dispatch(["audit", "dupes",
              "--metadata", str(workspace / "metadata.csv"),
              "--audio-dir", str(workspace / "audio"),
              "--out", str(dupes)])
    distortions = tmp / "distortions.json"
    distortions.write_text(json.dumps(
        [{"id": "slate.004", "note": "static", "usable_prefix_seconds": 2.0}]))
    out = tmp / "catalog.json"
    code = dispatch(["catalog", "build",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--tags", str(workspace / "tags.json"),
                     "--dupes", str(dupes),
                     "--distortions", str(distortions),
                     "--out", str(out)])
    assert code == 0
    return out


def test_catalog_build_contents(catalog_path):
    data = json.loads(catalog_path.read_text())
    exact = [g for g in data["repetitions"] if g["kind"] == "exact"]
    assert [g["members"] for g in exact] == [["amber.000", "amber.004"]]
    assert [v["id"] for v in data["mislabelings"]] == ["slate.003"]
    assert data["label_counts"] == {"amber": 5, "slate": 5}
    assert set(data["deltas"]) == {"amber", "slate"}


def test_catalog_show(catalog_path, tmp_path):
    out = tmp_path / "show.txt"
    assert dispatch(["catalog", "show", "--catalog", str(catalog_path),
                     "--out", str(out)]) == 0
    text = out.read_text()
    assert "exact repetitions: 1 groups" in text
    assert "slate.003" in text
    assert "exclusions: 2" in text  # amber.004 + distorted slate.004


def test_partition_make_st_prime(workspace, catalog_path, tmp_path):
    out = tmp_path / "partition.json"
    code = dispatch(["partition", "make",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--scheme", "st-prime",
                     "--catalog", str(catalog_path),
                     "--seed", "7",
                     "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    members = set(data["folds"][0]) | set(data["folds"][1])
    assert "amber.004" not in members and "slate.004" not in members
    assert len(members) == 8


def test_partition_make_af_with_manual_folds(workspace, tmp_path):
    manual = tmp_path / "folds.json"
    manual.write_text(json.dumps({"fold1": ["Artist Amber 0"],
                                  "fold2": ["Artist Amber 1"]}))
    out = tmp_path / "partition.json"
    code = dispatch(["partition", "make",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--scheme", "af",
                     "--artist-folds", str(manual),
                     "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert "amber.000" in data["folds"][0]
    assert "amber.001" in data["folds"][1]


@pytest.fixture(scope="module")
def features_path(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("features") / "features.csv"
    code = dispatch(["features", "extract",
                     "--metadata", str(workspace / "metadata.csv"),
                     "--audio-dir", str(workspace / "audio"),
                     "--out", str(out)])
    assert code == 0
    return out


def test_features_extract_shape(features_path):
    rows = read_csv_rows(features_path)
    # 8 s clips: 343 frames -> 2 texture windows per excerpt
    assert len(rows) == 10 * 2
    assert all(f"f{i}" in rows[0] for i in range(32))


def test_features_and_mmd_report_same_bytes_for_any_blas_thread_count(workspace, tmp_path):
    # OpenBLAS splits a product by its thread count, so a BLAS call in the features
    # or in the MMD scoring can make the last digits depend on it; the NN prefilter's
    # sgemm may change which rows it keeps, but never the report
    src = Path(cli.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(src))
        feats = tmp_path / f"features{threads}.csv"
        reports = [tmp_path / f"{kind}{threads}.json" for kind in ("mmd", "nn")]
        runs = [["features", "extract", "--audio-dir", workspace / "audio", "--out", feats]]
        runs += [["eval", "run", "--features", feats, "--scheme", "st", "--classifier", kind,
                  "--realizations", "2", "--out", report]
                 for kind, report in zip(("mmd", "nn"), reports)]
        for argv in runs:
            subprocess.run([sys.executable, "-m", "corpusaudit.cli", *map(str, argv),
                            "--metadata", str(workspace / "metadata.csv")],
                           env=env, check=True, timeout=120)
        outputs.append([path.read_bytes() for path in (feats, companion_path(feats), *reports)])
    assert outputs[0] == outputs[1]


# In a fresh interpreter: run the command given on the command line, if any, then print
# its exit code and every scipy module loaded.
SCIPY_PROBE = """import sys
from corpusaudit.cli import dispatch
code = dispatch(sys.argv[1:]) if sys.argv[1:] else 0
print(code, *sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


@pytest.fixture(scope="module")
def warm_fp_cache(workspace, tmp_path_factory):
    cache = tmp_path_factory.mktemp("warm") / "prints.bin"
    assert _audit_dupes(workspace, cache, cache.with_name("dupes.csv")) == 0
    return cache


# (command, AUDIT_THREADS); none of them loads any scipy module
AUDIO = ["--audio-dir", "{audio}", "--metadata", "{metadata}"]
SCIPY_FOOTPRINTS = {
    "import": ([], "1"),
    "catalog_show": (["catalog", "show", "--catalog", "{catalog}"], "1"),
    "report_perfect": (["report", "perfect", "--catalog", "{catalog}"], "1"),
    "eval_run_md": (["eval", "run", "--metadata", "{metadata}", "--features", "{features}",
                     "--scheme", "st", "--classifier", "md"], "1"),
    "warm_audit_dupes": (["audit", "dupes", *AUDIO, "--cache", "{warm}"], "1"),
    "cold_audit_dupes": (["audit", "dupes", *AUDIO, "--cache", "{tmp}/prints.bin"], "2"),
    "features_extract": (["features", "extract", *AUDIO], "1"),
    "eval_run_nn": (["eval", "run", "--metadata", "{metadata}", "--features", "{features}",
                     "--scheme", "st", "--classifier", "nn"], "1"),
}


@pytest.mark.parametrize("case", list(SCIPY_FOOTPRINTS))
def test_commands_load_only_the_scipy_they_run(good_inputs, warm_fp_cache, tmp_path, case):
    """The package runs on numpy alone: start-up and every command, reading WAV
    files, fingerprinting, the features' DCT and NN scoring, load no scipy module."""
    template, threads = SCIPY_FOOTPRINTS[case]
    paths = {**good_inputs, "warm": warm_fp_cache, "tmp": tmp_path}
    argv = [arg.format(**paths) for arg in template]
    if argv:
        argv += ["--out", str(tmp_path / "out")]
    env = dict(os.environ, AUDIT_THREADS=threads,
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    code, *scipy_modules = run.stdout.split()
    assert code == "0", run.stderr
    assert scipy_modules == []


def test_eval_run_and_rerun_identical(workspace, features_path, tmp_path):
    args = ["eval", "run",
            "--metadata", str(workspace / "metadata.csv"),
            "--features", str(features_path),
            "--scheme", "st", "--classifier", "md",
            "--seed", "5", "--realizations", "2"]
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    assert dispatch(args + ["--out", str(out_a)]) == 0
    assert dispatch(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    report = json.loads(out_a.read_text())
    assert report["scheme"] == "st" and report["classifier"] == "md"
    assert 0.0 <= report["accuracy_mean"] <= 1.0
    assert len(report["realizations"]) == 2
    n_preds = sum(len(r["predictions"]) for r in report["realizations"])
    assert n_preds == 2 * 10


def test_eval_compare_identical_reports(workspace, features_path, tmp_path):
    out = tmp_path / "report.json"
    dispatch(["eval", "run",
              "--metadata", str(workspace / "metadata.csv"),
              "--features", str(features_path),
              "--scheme", "st", "--classifier", "nn",
              "--seed", "5", "--out", str(out)])
    cmp_out = tmp_path / "cmp.json"
    assert dispatch(["eval", "compare", str(out), str(out),
                     "--out", str(cmp_out)]) == 0
    result = json.loads(cmp_out.read_text())
    assert result["n_disagreements"] == 0
    assert result["p"] == 1.0
    assert result["conclusion"] == "fail to reject"


def test_eval_relabel(workspace, features_path, catalog_path, tmp_path):
    report = tmp_path / "report.json"
    dispatch(["eval", "run",
              "--metadata", str(workspace / "metadata.csv"),
              "--features", str(features_path),
              "--scheme", "st", "--classifier", "md",
              "--seed", "5", "--out", str(report)])
    out = tmp_path / "relabeled.json"
    assert dispatch(["eval", "relabel",
                     "--catalog", str(catalog_path),
                     "--predictions", str(report),
                     "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["relabeled"] == ["slate.003"]
    assert 0.0 <= data["accuracy_mean"] <= 1.0


def test_report_perfect_text_and_json(catalog_path, tmp_path):
    text_out = tmp_path / "perfect.txt"
    assert dispatch(["report", "perfect", "--catalog", str(catalog_path),
                     "--out", str(text_out)]) == 0
    text = text_out.read_text()
    assert "accuracy:" in text

    json_out = tmp_path / "perfect.json"
    assert dispatch(["report", "perfect", "--catalog", str(catalog_path),
                     "--format", "json", "--out", str(json_out)]) == 0
    data = json.loads(json_out.read_text())
    matrix = np.array(data["matrix"])
    # column sums equal the label counts: weight is conserved
    assert np.allclose(matrix.sum(axis=0), [5.0, 5.0])
    # the planted mislabeling moves slate weight toward amber
    assert matrix[0, 1] > 0
    assert data["accuracy"] < 1.0


def test_report_perfect_json_equals_library(catalog_path, tmp_path):
    out = tmp_path / "perfect.json"
    assert dispatch(["report", "perfect", "--catalog", str(catalog_path),
                     "--format", "json", "--out", str(out)]) == 0
    pc = perfect_confusion(load_catalog(catalog_path))
    fom = perfect_statistics(pc)
    assert json.loads(out.read_text()) == {
        "labels": list(pc.labels),
        "matrix": [[round(v, 10) for v in row] for row in pc.matrix],
        "recall": fom.recall, "precision": fom.precision, "fscore": fom.fscore,
        "accuracy": fom.accuracy}


def test_dispatch_reuses_one_parser_as_if_fresh(catalog_path, capsys, monkeypatch):
    commands = [
        ["report", "perfect", "--catalog", str(catalog_path), "--format", "pdf"],
        ["catalog", "show", "--catalog", str(catalog_path)],
        ["report", "perfect", "--catalog", str(catalog_path), "--format", "json"],
    ]

    def run_all():
        results = []
        for argv in commands:
            code = dispatch(argv)
            results.append((code, *capsys.readouterr()))
        return results

    shared = run_all()
    assert cli._shared_parser() is cli._shared_parser()
    assert cli.build_parser() is not cli.build_parser()
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    assert run_all() == shared
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert "invalid choice: 'pdf'" in shared[0][2]
    assert shared[1][1].startswith("fault catalog\n")
    assert json.loads(shared[2][1])["labels"] == ["amber", "slate"]


def test_eval_relabel_without_flags_reproduces_report(workspace, features_path, tmp_path):
    catalog = tmp_path / "catalog.json"
    assert dispatch(["catalog", "build", "--metadata", str(workspace / "metadata.csv"),
                     "--out", str(catalog)]) == 0
    report, out = tmp_path / "report.json", tmp_path / "relabeled.json"
    assert dispatch(["eval", "run", "--metadata", str(workspace / "metadata.csv"),
                     "--features", str(features_path), "--scheme", "st",
                     "--classifier", "nn", "--seed", "3", "--realizations", "2",
                     "--out", str(report)]) == 0
    assert dispatch(["eval", "relabel", "--catalog", str(catalog),
                     "--predictions", str(report), "--out", str(out)]) == 0
    run, relabeled = json.loads(report.read_text()), json.loads(out.read_text())
    assert relabeled["relabeled"] == []
    assert [r["folds"] for r in relabeled["realizations"]] == \
        [r["folds"] for r in run["realizations"]]
    for key in ("accuracy_mean", "accuracy_std"):
        assert relabeled[key] == run[key]


def _verdict(eid, label, scores):
    return {"id": eid, "label": label, "own_score": scores[label], "scores": scores,
            "best_other_label": None, "best_other_score": 0.0, "flagged": True,
            "rule": "low_own"}


# a.0: best b, runner-up tied between a and c within a's margin -> split b/a
# b.0: every score zero -> spread 1/3; b.1: runner-up outside b's margin -> a
# c.0: best tied between a and b -> a leads by label order, split a/b
TIE_CATALOG = {
    "labels": ["a", "b", "c"],
    "label_counts": {"a": 4, "b": 4, "c": 4},
    "repetitions": [],
    "mislabelings": [
        _verdict("a.0", "a", {"a": 0.25, "b": 0.75, "c": 0.25}),
        _verdict("b.0", "b", {"a": 0.0, "b": 0.0, "c": 0.0}),
        _verdict("b.1", "b", {"a": 0.9, "b": 0.1, "c": 0.0}),
        _verdict("c.0", "c", {"a": 0.5, "b": 0.5, "c": 0.0}),
    ],
    "distortions": [],
    "deltas": {"a": 0.5, "b": 0.5, "c": 0.01},
}


def test_report_perfect_and_relabel_share_the_ranking_rule(tmp_path):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(TIE_CATALOG))
    out = tmp_path / "perfect.json"
    assert dispatch(["report", "perfect", "--catalog", str(catalog),
                     "--format", "json", "--out", str(out)]) == 0
    third = 1.0 / 3
    assert json.loads(out.read_text())["matrix"] == [
        [3.5, round(third + 1.0, 10), 0.5],
        [0.5, round(third + 2.0, 10), 0.5],
        [0.0, round(third, 10), 3.0]]

    # relabeling moves a.0 -> b, b.1 -> a and c.0 -> a, which makes every
    # one of these predictions right
    preds = [("a.0", "a", "b"), ("a.1", "a", "a"), ("b.1", "b", "a"),
             ("b.2", "b", "b"), ("c.0", "c", "a"), ("c.1", "c", "c")]
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"realizations": [{"predictions": [
        {"id": eid, "true": true, "predicted": pred, "fold": 0}
        for eid, true, pred in preds]}]}))
    out = tmp_path / "relabeled.json"
    assert dispatch(["eval", "relabel", "--catalog", str(catalog),
                     "--predictions", str(report), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["relabeled"] == ["a.0", "b.1", "c.0"]
    assert data["accuracy_mean"] == 1.0


def _damaged_catalog(mutate):
    def build(fx, tmp):
        data = json.loads(fx["catalog"].read_text())
        mutate(data)
        path = tmp / "damaged-catalog.json"
        path.write_text(json.dumps(data))
        return path
    return build


def _text(name, text):
    def build(fx, tmp):
        path = tmp / name
        path.write_text(text)
        return path
    return build


def _bytes(name, data):
    def build(fx, tmp):
        path = tmp / name
        path.write_bytes(data)
        return path
    return build


def _absent(name):
    return lambda fx, tmp: tmp / name


def _damaged_report(mutate):
    """The good report with ``mutate`` applied to its first realization's predictions."""
    def build(fx, tmp):
        data = json.loads(fx["report"].read_text())
        mutate(data["realizations"][0]["predictions"])
        path = tmp / "damaged-report.json"
        path.write_text(json.dumps(data))
        return path
    return build


def _repeat_slate_004(predictions):
    predictions.append(dict(next(p for p in predictions if p["id"] == "slate.004")))


def _relabel_slate_004(predictions):
    next(p for p in predictions if p["id"] == "slate.004")["true"] = "amber"


def _slate_003(data):
    return next(v for v in data["mislabelings"] if v["id"] == "slate.003")


def _catalog_build(fx, bad, option):
    return ["catalog", "build", "--metadata", fx["metadata"], option, bad]


def _eval_run(fx, features, *extra):
    return ["eval", "run", "--metadata", fx["metadata"], "--features", features,
            "--scheme", "af", "--classifier", "md", *extra]


def _audio_with(edit):
    """A copy of the audio directory in which amber.000 holds ``edit`` of its samples."""
    def build(fx, tmp):
        audio = tmp / "audio"
        audio.mkdir()
        for wav in fx["audio"].iterdir():
            (audio / wav.name).write_bytes(wav.read_bytes())
        rate, data = wavfile.read(audio / "amber.000.wav")
        wavfile.write(audio / "amber.000.wav", rate, edit(data))
        return audio
    return build


def _audio_with_sample(value):
    """A copy of the audio directory in which amber.000 holds ``value`` at sample 100."""
    def edit(data):
        data[100] = value
        return data
    return _audio_with(edit)


def _features_with(eid, window, feature, value):
    """A copy of the feature CSV, with no companion, in which ``eid``'s ``window``
    holds ``value`` at ``feature``."""
    def build(fx, tmp):
        rows = list(csv.reader(fx["features"].read_text().splitlines()))
        for row in rows:
            if row[:2] == [eid, str(window)]:
                row[2 + feature] = value
        path = tmp / "features.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return path
    return build


def _constant_features(fx, tmp):
    """A feature CSV, with no companion, giving every excerpt two windows of two
    features that all equal 0.5."""
    with fx["metadata"].open(newline="") as fh:
        ids = [row["id"] for row in csv.DictReader(fh)]
    path = tmp / "constant.csv"
    path.write_text("id,window_index,f0,f1\n"
                    + "".join(f"{eid},{w},0.5,0.5\n" for eid in ids for w in (0, 1)))
    return path


def _report_with(**fields):
    """An ``eval run`` report of one prediction whose fields ``fields`` replace."""
    prediction = {"id": "amber.000", "true": "amber", "predicted": "amber", "fold": 0}
    return _text("report.json", json.dumps(
        {"realizations": [{"predictions": [{**prediction, **fields}]}]}))


def _report_twice(fx, tmp):
    """The good report with its one realization repeated."""
    data = json.loads(fx["report"].read_text())
    data["realizations"] *= 2
    path = tmp / "two-realizations.json"
    path.write_text(json.dumps(data))
    return path


def _relabel(fx, bad):
    return ["eval", "relabel", "--catalog", fx["catalog"], "--predictions", bad]


def _labelless_catalog(fx, tmp):
    """The catalog ``catalog build`` writes for a metadata CSV that holds only its header."""
    metadata, catalog = tmp / "header-only.csv", tmp / "labelless-catalog.json"
    metadata.write_text("id,label,artist,title\n")
    assert dispatch(["catalog", "build", "--metadata", str(metadata), "--out", str(catalog)]) == 0
    return catalog


# (make the bad file, argv for it, text the one stderr line must also hold)
BAD_INPUTS = {
    "catalog_without_labels": (
        _labelless_catalog,
        lambda fx, bad: ["report", "perfect", "--catalog", bad], "no labels"),
    "catalog_without_labels_as_json": (
        _labelless_catalog,
        lambda fx, bad: ["report", "perfect", "--catalog", bad, "--format", "json"],
        "no labels"),
    "catalog_empty_scores": (
        _damaged_catalog(lambda d: _slate_003(d).update(scores={})),
        lambda fx, bad: ["report", "perfect", "--catalog", bad], "'slate.003'"),
    "catalog_label_outside_labels": (
        _damaged_catalog(lambda d: _slate_003(d).update(label="violet")),
        lambda fx, bad: ["report", "perfect", "--catalog", bad], "'slate.003'"),
    "catalog_best_other_label_outside_labels": (
        _damaged_catalog(lambda d: _slate_003(d).update(best_other_label="violet")),
        lambda fx, bad: ["report", "perfect", "--catalog", bad], "'slate.003'"),
    "catalog_best_other_label_a_number": (
        _damaged_catalog(lambda d: _slate_003(d).update(best_other_label=5)),
        lambda fx, bad: ["catalog", "show", "--catalog", bad], "'slate.003'"),
    "catalog_score_key_outside_labels": (
        _damaged_catalog(lambda d: _slate_003(d)["scores"].update(violet=0.5)),
        lambda fx, bad: ["eval", "relabel", "--catalog", bad,
                         "--predictions", fx["report"]], "'slate.003'"),
    "catalog_flagged_label_without_delta": (
        _damaged_catalog(lambda d: d["deltas"].pop("slate")),
        lambda fx, bad: ["report", "perfect", "--catalog", bad], "'slate'"),
    **{f"catalog_count_{name}": (
        _damaged_catalog(lambda d, count=count: d["label_counts"].update(amber=count)),
        lambda fx, bad: ["report", "perfect", "--catalog", bad], "integer counts from 0")
       for name, count in (("fraction", 2.9), ("string", "2"), ("bool", True),
                           ("huge", 10**300))},
    **{f"catalog_delta_{name}": (
        _damaged_catalog(lambda d, delta=delta: d["deltas"].update(slate=delta)),
        lambda fx, bad: ["catalog", "show", "--catalog", bad],
        "delta for label 'slate' must be a finite number >= 0")
       for name, delta in (("string", "0.1"), ("nan", float("nan")), ("negative", -1))},
    "catalog_delta_for_a_label_outside_labels": (
        _damaged_catalog(lambda d: d["deltas"].update(violet=0.5)),
        lambda fx, bad: ["catalog", "show", "--catalog", bad],
        "delta for label 'violet', which is not a catalog label"),
    "report_repeating_an_excerpt_on_compare": (
        _damaged_report(_repeat_slate_004),
        lambda fx, bad: ["eval", "compare", fx["report"], bad],
        "realization 0 repeats excerpt 'slate.004'"),
    "report_repeating_an_excerpt_on_relabel": (
        _damaged_report(_repeat_slate_004),
        lambda fx, bad: ["eval", "relabel", "--catalog", fx["catalog"], "--predictions", bad],
        "realization 0 repeats excerpt 'slate.004'"),
    "reports_with_two_true_labels_for_one_excerpt": (
        _damaged_report(_relabel_slate_004),
        lambda fx, bad: ["eval", "compare", fx["report"], bad],
        "excerpt 'slate.004' the true labels 'slate' and 'amber' in realization 0"),
    "report_label_outside_catalog": (
        _text("report.json", json.dumps({"realizations": [{"predictions": [
            {"id": "amber.000", "true": "amber", "predicted": "violet", "fold": 0}]}]})),
        lambda fx, bad: ["eval", "relabel", "--catalog", fx["catalog"],
                         "--predictions", bad], "'amber.000'"),
    "report_id_a_list_on_compare": (
        _report_with(id=["amber.000"]),
        lambda fx, bad: ["eval", "compare", fx["report"], bad], "malformed report"),
    "report_realization_count_on_compare": (
        _report_twice,
        lambda fx, bad: ["eval", "compare", fx["report"], bad], "ran 1 and 2 realizations"),
    "report_id_a_list_on_relabel": (
        _report_with(id=["amber.000"]), _relabel, "malformed report"),
    "report_predicted_null": (
        _report_with(predicted=None),
        lambda fx, bad: ["eval", "compare", bad, fx["report"]], "'predicted' is not a string"),
    "report_true_a_number": (
        _report_with(true=5),
        lambda fx, bad: ["eval", "compare", fx["report"], bad], "'true' is not a string"),
    "report_fold_a_string": (
        _report_with(fold="x"),
        lambda fx, bad: ["eval", "compare", fx["report"], bad], "'fold' is not a non-negative"),
    "report_fold_negative": (
        _report_with(fold=-1), _relabel, "'fold' is not a non-negative integer"),
    "report_fold_a_bool": (
        _report_with(fold=True), _relabel, "'fold' is not a non-negative integer"),
    **{f"tags_tag_{name}": (
        _text("tags.json", json.dumps([{"id": "amber.000", "tags": [{"tag": "x", "count": 1}]},
                                       {"id": "amber.001", "tags": [{"tag": tag, "count": 1}]}])),
        lambda fx, bad: ["audit", "labels", "--metadata", fx["metadata"], "--tags", bad],
        f"entry 1: tag {tag!r} is not a string")
       for name, tag in (("null", None), ("number", 5), ("list", ["x"]), ("bool", True))},
    "missing_recordings": (
        _absent("recordings.json"),
        lambda fx, bad: _catalog_build(fx, bad, "--recordings"), "not found"),
    "invalid_recordings": (
        _text("recordings.json", "[[\"amber.000\","),
        lambda fx, bad: _catalog_build(fx, bad, "--recordings"), "invalid JSON"),
    "missing_distortions": (
        _absent("distortions.json"),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"), "not found"),
    "invalid_distortions": (
        _text("distortions.json", "{"),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"), "invalid JSON"),
    "distortion_without_id": (
        _text("distortions.json", json.dumps([{"id": "amber.001"}, {"note": "hum"}])),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"), "entry 1"),
    "missing_dupes": (
        _absent("dupes.csv"),
        lambda fx, bad: _catalog_build(fx, bad, "--dupes"), "not found"),
    **{f"dupes_score_{name}": (
        _text("dupes.csv", f"id_a,id_b,score,offset_frames\namber.000,amber.001,{score},0\n"),
        lambda fx, bad: _catalog_build(fx, bad, "--dupes"),
        f":2: score {score} is not a number from 0 to 1")
       for name, score in (("nan", "nan"), ("inf", "inf"), ("negative", "-0.5"),
                           ("above_one", "1.5"))},
    "dupes_self_pair": (
        _text("dupes.csv", "id_a,id_b,score,offset_frames\namber.000,amber.000,0.900000,0\n"),
        lambda fx, bad: _catalog_build(fx, bad, "--dupes"),
        ":2: excerpt 'amber.000' is paired with itself"),
    "dupes_id_outside_metadata": (
        _text("dupes.csv", "id_a,id_b,score,offset_frames\namber.000,zzz.9,0.900000,0\n"),
        lambda fx, bad: _catalog_build(fx, bad, "--dupes"), ":2: unknown excerpt 'zzz.9'"),
    "missing_artist_folds": (
        _absent("folds.json"),
        lambda fx, bad: ["partition", "make", "--metadata", fx["metadata"],
                         "--scheme", "af", "--artist-folds", bad], "not found"),
    "invalid_artist_folds": (
        _text("folds.json", "{\"fold1\": "),
        lambda fx, bad: _eval_run(fx, fx["features"], "--artist-folds", bad), "invalid JSON"),
    "missing_report": (
        _absent("report.json"),
        lambda fx, bad: ["eval", "relabel", "--catalog", fx["catalog"],
                         "--predictions", bad], "not found"),
    "invalid_report": (
        _text("report.json", "not json"),
        lambda fx, bad: ["eval", "compare", fx["report"], bad], "invalid JSON"),
    "missing_catalog": (
        _absent("none.json"),
        lambda fx, bad: ["catalog", "show", "--catalog", bad], "not found"),
    "missing_metadata": (
        _absent("metadata.csv"),
        lambda fx, bad: ["audit", "labels", "--metadata", bad, "--tags", fx["tags"]],
        "not found"),
    "metadata_not_utf8": (
        _bytes("metadata.csv", b"id,label,artist,title\namber.000,amber,Ann,\xff\n"),
        lambda fx, bad: ["partition", "make", "--metadata", bad, "--scheme", "st"],
        "metadata CSV is not UTF-8 text"),
    "metadata_field_over_csv_limit": (
        _text("metadata.csv", "id,label,artist,title\namber.000,amber,Ann," + "x" * 200_000),
        lambda fx, bad: ["eval", "run", "--metadata", bad, "--features", fx["features"],
                         "--scheme", "st", "--classifier", "md"],
        "field larger than field limit"),
    "features_not_utf8": (  # past the first 8 KiB that the text reader decodes at once
        _bytes("features.csv", b"id,window_index,f0\n"
               + b"".join(b"amber.000,%d,0.5\n" % w for w in range(600)) + b"slate.000,0,\xff\n"),
        lambda fx, bad: _eval_run(fx, bad), "feature CSV is not UTF-8 text"),
    "dupes_not_utf8": (
        _bytes("dupes.csv", b"id_a,id_b,score,offset_frames\namber.000,amber.001,0.9\xff,0\n"),
        lambda fx, bad: _catalog_build(fx, bad, "--dupes"), "dupes CSV is not UTF-8 text"),
    "missing_features": (
        _absent("features.csv"),
        lambda fx, bad: _eval_run(fx, bad), "not found"),
    "metadata_without_excerpts": (
        _text("metadata.csv", "id,label,artist,title\n"),
        lambda fx, bad: ["eval", "run", "--metadata", bad, "--features", fx["features"],
                         "--scheme", "st", "--classifier", "md"], "no excerpts to evaluate"),
    "non_integer_window_index": (
        _text("features.csv", "id,window_index,f0\namber.000,0,0.5\namber.000,one,0.5\n"),
        lambda fx, bad: _eval_run(fx, bad), ":3:"),
    "short_feature_row": (
        _text("features.csv", "id,window_index,f0,f1\namber.000,0,0.5,0.5\namber.000,1,0.5\n"),
        lambda fx, bad: _eval_run(fx, bad), ":3:"),
    "long_feature_row": (
        _text("features.csv",
              "id,window_index,f0,f1\namber.000,0,0.5,0.5\namber.000,1,0.5,0.5,0.5\n"),
        lambda fx, bad: _eval_run(fx, bad), ":3:"),
    "non_numeric_feature": (
        _text("features.csv",
              "id,window_index,f0,f1\namber.000,0,0.5,0.5\namber.000,1,0.5,n/a\n"),
        lambda fx, bad: _eval_run(fx, bad), ":3:"),
    "features_without_feature_columns": (
        _text("features.csv", "id,window_index\namber.000,0\nslate.000,0\n"),
        lambda fx, bad: _eval_run(fx, bad, "--scheme", "st", "--classifier", "nn"),
        "no feature columns"),
    "mmd_on_constant_features": (
        _constant_features,
        lambda fx, bad: _eval_run(fx, bad, "--scheme", "st", "--classifier", "mmd"),
        "every training feature is constant"),
    "unknown_recording_id": (
        _text("recordings.json", json.dumps([["amber.000", "nope.999"]])),
        lambda fx, bad: _catalog_build(fx, bad, "--recordings"), "'nope.999'"),
    "unknown_distortion_id": (
        _text("distortions.json", json.dumps([{"id": "nope.999"}])),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"), "'nope.999'"),
    "report_without_predictions": (
        _text("report.json", json.dumps({"realizations": [{"predictions": []}]})),
        lambda fx, bad: ["eval", "relabel", "--catalog", fx["catalog"],
                         "--predictions", bad], "no fold"),
    "artist_folds_not_a_mapping": (
        _text("folds.json", "[]"),
        lambda fx, bad: ["partition", "make", "--metadata", fx["metadata"],
                         "--scheme", "af", "--artist-folds", bad], "'fold1'"),
    "artist_folds_not_lists": (
        _text("folds.json", json.dumps({"fold1": "Artist Amber 0"})),
        lambda fx, bad: _eval_run(fx, fx["features"], "--artist-folds", bad), "'fold1'"),
    "distortion_prefix_not_a_number": (
        _text("distortions.json", json.dumps([{"id": "amber.000",
                                               "usable_prefix_seconds": "three"}])),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"), "entry 0"),
    "negative_distortion_prefix": (
        _text("distortions.json", json.dumps([{"id": "amber.000",
                                               "usable_prefix_seconds": -3}])),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"), "entry 0"),
    "nan_distortion_prefix": (
        _text("distortions.json", '[{"id": "amber.000", "usable_prefix_seconds": NaN}]'),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"), "entry 0"),
    "infinite_distortion_prefix": (
        _text("distortions.json", '[{"id": "amber.000", "usable_prefix_seconds": Infinity}]'),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"), "entry 0"),
    "repeated_distortion_id": (
        _text("distortions.json", json.dumps([{"id": "amber.000"},
                                              {"id": "amber.000", "note": "again"}])),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"),
        "entry 1 repeats id 'amber.000'"),
    "distortion_id_not_a_string": (
        _text("distortions.json", json.dumps([{"id": ["amber.000"]}])),
        lambda fx, bad: _catalog_build(fx, bad, "--distortions"), "entry 0"),
    "catalog_negative_distortion_prefix": (
        _damaged_catalog(lambda d: d["distortions"].append(
            {"id": "amber.000", "note": "", "usable_prefix_seconds": -3})),
        lambda fx, bad: ["catalog", "show", "--catalog", bad], "usable_prefix_seconds"),
    "catalog_repeated_distortion_id": (
        _damaged_catalog(lambda d: d["distortions"].extend(
            [{"id": "amber.000", "note": "hum", "usable_prefix_seconds": None}] * 2)),
        lambda fx, bad: ["catalog", "show", "--catalog", bad], "repeats id 'amber.000'"),
    "empty_recording_group": (
        _text("recordings.json", json.dumps([["amber.000", "amber.001"], []])),
        lambda fx, bad: _catalog_build(fx, bad, "--recordings"), "group 1 holds fewer than two"),
    "one_member_recording_group": (
        _text("recordings.json", json.dumps([["amber.000"]])),
        lambda fx, bad: _catalog_build(fx, bad, "--recordings"), "group 0 holds fewer than two"),
    "recording_group_repeating_an_id": (
        _text("recordings.json", json.dumps([["amber.001", "amber.001"]])),
        lambda fx, bad: _catalog_build(fx, bad, "--recordings"),
        "group 0 repeats excerpt 'amber.001'"),
    "catalog_repetition_kind_unknown": (
        _damaged_catalog(lambda d: d["repetitions"].insert(0, {
            "kind": "bogus", "members": ["amber.000", "amber.001"], "evidence": "manual"})),
        lambda fx, bad: ["catalog", "show", "--catalog", bad], "group 0: kind must be"),
    "catalog_one_member_repetition_group": (
        _damaged_catalog(lambda d: d["repetitions"].insert(1, {
            "kind": "exact", "members": ["amber.001"], "evidence": "fingerprint"})),
        lambda fx, bad: _eval_run(fx, fx["features"], "--scheme", "st-prime",
                                  "--catalog", bad), "group 1 holds fewer than two"),
    "catalog_self_repeating_group": (
        _damaged_catalog(lambda d: d["repetitions"].insert(0, {
            "kind": "recording", "members": ["amber.001", "amber.001"],
            "evidence": "manual"})),
        lambda fx, bad: _eval_run(fx, fx["features"], "--scheme", "af-prime",
                                  "--catalog", bad), "group 0 repeats excerpt 'amber.001'"),
    "catalog_repetition_members_a_string": (
        _damaged_catalog(lambda d: d["repetitions"].insert(0, {
            "kind": "exact", "members": "amber.001", "evidence": "fingerprint"})),
        lambda fx, bad: ["catalog", "show", "--catalog", bad], "group 0: members must be"),
    "catalog_own_score_not_a_number": (
        _damaged_catalog(lambda d: _slate_003(d).update(own_score="high")),
        lambda fx, bad: ["catalog", "show", "--catalog", bad],
        "'slate.003' must have a string id, finite scores"),
    "catalog_flagged_score_a_string": (
        _damaged_catalog(lambda d: _slate_003(d)["scores"].update(amber="0.5")),
        lambda fx, bad: ["report", "perfect", "--catalog", bad],
        "'slate.003' must have a string id, finite scores"),
    "catalog_id_outside_metadata": (
        _damaged_catalog(lambda d: d["distortions"].append(
            {"id": "amber.999", "note": "hum", "usable_prefix_seconds": None})),
        lambda fx, bad: _eval_run(fx, fx["features"], "--scheme", "st-prime",
                                  "--catalog", bad), "unknown excerpt 'amber.999'"),
    "catalog_labels_differ_from_metadata": (
        _damaged_catalog(lambda d: (d["labels"].append("violet"),
                                    d["label_counts"].update(violet=0))),
        lambda fx, bad: ["partition", "make", "--metadata", fx["metadata"],
                         "--scheme", "af-prime", "--catalog", bad],
        "catalog labels amber, slate, violet differ from the metadata labels amber, slate"),
    "features_is_a_directory": (
        lambda fx, tmp: tmp,
        lambda fx, bad: _eval_run(fx, bad), "cannot read"),
    "eval_out_in_missing_directory": (
        _absent("missing/report.json"),
        lambda fx, bad: _eval_run(fx, fx["features"], "--out", bad), "cannot write"),
    "catalog_out_in_missing_directory": (
        _absent("missing/catalog.json"),
        lambda fx, bad: ["catalog", "build", "--metadata", fx["metadata"], "--out", bad],
        "cannot write"),
    "negative_eval_seed": (
        lambda fx, tmp: "-1",
        lambda fx, bad: _eval_run(fx, fx["features"], "--seed", bad), "--seed"),
    "negative_partition_seed": (
        lambda fx, tmp: "-5",
        lambda fx, bad: ["partition", "make", "--metadata", fx["metadata"],
                         "--scheme", "st", "--seed", bad], "--seed"),
    "zero_realizations": (
        lambda fx, tmp: "0",
        lambda fx, bad: _eval_run(fx, fx["features"], "--realizations", bad),
        "--realizations"),
    "af_realizations_above_one": (
        lambda fx, tmp: "2",
        lambda fx, bad: _eval_run(fx, fx["features"], "--realizations", bad),
        "scheme 'af' makes the same partition for every realization"),
    "af_prime_realizations_above_one": (
        lambda fx, tmp: "3",
        lambda fx, bad: _eval_run(fx, fx["features"], "--scheme", "af-prime", "--catalog",
                                  fx["catalog"], "--realizations", bad), "not 3"),
    "nan_threshold": (
        lambda fx, tmp: "nan",
        lambda fx, bad: ["audit", "dupes", "--metadata", fx["metadata"],
                         "--audio-dir", fx["audio"], "--threshold", bad], "--threshold"),
    "inf_threshold": (
        lambda fx, tmp: "inf",
        lambda fx, bad: _catalog_build(fx, bad, "--threshold"), "--threshold"),
    "removed_scheme_kfold": (
        lambda fx, tmp: "kfold",
        lambda fx, bad: _eval_run(fx, fx["features"], "--scheme", bad), "--scheme"),
    "removed_scheme_split": (
        lambda fx, tmp: "split",
        lambda fx, bad: ["partition", "make", "--metadata", fx["metadata"],
                         "--scheme", bad], "--scheme"),
    "removed_delta_rule_on_audit_labels": (
        lambda fx, tmp: "range",
        lambda fx, bad: ["audit", "labels", "--metadata", fx["metadata"], "--tags", fx["tags"],
                         "--delta-rule", bad], "--delta-rule"),
    "removed_delta_rule_on_catalog_build": (
        lambda fx, tmp: "range",
        lambda fx, bad: _catalog_build(fx, bad, "--delta-rule"), "--delta-rule"),
    "nan_sample_in_audio": (
        _audio_with_sample(np.nan),
        lambda fx, bad: ["audit", "dupes", "--metadata", fx["metadata"], "--audio-dir", bad],
        "amber.000.wav: sample 100 is nan, not a finite number"),
    "inf_sample_in_audio": (
        _audio_with_sample(-np.inf),
        lambda fx, bad: ["features", "extract", "--metadata", fx["metadata"],
                         "--audio-dir", bad], "amber.000.wav: sample 100 is -inf"),
    "clip_too_short_to_fingerprint": (
        _audio_with(lambda data: data[:500]),
        lambda fx, bad: ["audit", "dupes", "--metadata", fx["metadata"], "--audio-dir", bad],
        "amber.000.wav: need at least 1024 samples, got 500"),
    "clip_too_short_for_a_texture_window": (
        _audio_with(lambda data: data[:2 * SR]),
        lambda fx, bad: ["features", "extract", "--metadata", fx["metadata"],
                         "--audio-dir", bad], "amber.000.wav: need at least 130 frames, got 85"),
    "nan_feature_value": (
        _features_with("amber.000", 1, 3, "nan"),
        lambda fx, bad: _eval_run(fx, bad),
        "excerpt 'amber.000' window 1: feature 3 is nan, not a finite number"),
    "infinite_feature_value": (
        _features_with("slate.004", 0, 31, "-inf"),
        lambda fx, bad: _eval_run(fx, bad, "--classifier", "nn"),
        "excerpt 'slate.004' window 0: feature 31 is -inf"),
    "tag_id_not_a_string": (
        _text("tags.json", json.dumps([{"id": ["amber.000"]}])),
        lambda fx, bad: ["audit", "labels", "--metadata", fx["metadata"], "--tags", bad],
        "entry 0: 'id' is not a string"),
    "tags_not_a_list": (
        _text("tags.json", json.dumps([{"id": "amber.000", "tags": 5}])),
        lambda fx, bad: _catalog_build(fx, bad, "--tags"), "entry 0: 'tags' is not an array"),
    "catalog_nested_too_deep": (
        _text("catalog.json", "[" * 100_000),
        lambda fx, bad: ["catalog", "show", "--catalog", bad], "invalid JSON"),
    "report_nested_too_deep": (
        _text("report.json", "[" * 100_000),
        lambda fx, bad: ["eval", "compare", fx["report"], bad], "invalid JSON"),
    "tag_entry_without_tag": (
        _text("tags.json", json.dumps([{"id": "amber.000", "tags": [{"count": 3}]}])),
        lambda fx, bad: ["audit", "labels", "--metadata", fx["metadata"], "--tags", bad],
        "entry 0"),
}


@pytest.fixture(scope="module")
def good_inputs(workspace, catalog_path, features_path, tmp_path_factory):
    report = tmp_path_factory.mktemp("good") / "report.json"
    assert dispatch(["eval", "run", "--metadata", str(workspace / "metadata.csv"),
                     "--features", str(features_path), "--scheme", "st",
                     "--classifier", "md", "--out", str(report)]) == 0
    return {"metadata": workspace / "metadata.csv", "tags": workspace / "tags.json",
            "audio": workspace / "audio", "catalog": catalog_path, "features": features_path,
            "report": report}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_two(good_inputs, tmp_path, capsys, case):
    make_bad, argv_for, needle = BAD_INPUTS[case]
    bad = make_bad(good_inputs, tmp_path)
    out = tmp_path / "out"
    argv = [str(a) for a in argv_for(good_inputs, bad)]
    if "--out" not in argv:  # rows whose bad input is the output path set their own
        argv += ["--out", str(out)]
    capsys.readouterr()
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(bad) in err and needle in err
    assert not out.exists()


def _field_paths(value, path=()):
    """Paths to every field below ``value``; in an array, only to its first element."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value:
        items = [(0, value[0])]
    else:
        return []
    return [p for key, child in items
            for p in [(*path, key), *_field_paths(child, (*path, key))]]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.integers()
    | st.integers(-10**400, 10**400),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["amber", "slate", "violet", "id"]) | st.text(max_size=4), children,
        max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def fuzz_catalog(good_inputs, tmp_path_factory):
    """The good catalog JSON, its field paths, a file to write damaged copies to and
    an ``eval run`` report to relabel."""
    data = json.loads(good_inputs["catalog"].read_text())
    return (data, _field_paths(data), tmp_path_factory.mktemp("fuzz") / "catalog.json",
            good_inputs["report"])


@settings(max_examples=100, deadline=None)
@given(st.data(), JSON_VALUES)
def test_catalog_commands_exit_0_or_2_on_any_field_value(fuzz_catalog, data, value):
    good, paths, path, report = fuzz_catalog
    out = path.with_name("relabeled.json")
    field = data.draw(st.sampled_from(paths))
    damaged = json.loads(json.dumps(good))
    parent = damaged
    for key in field[:-1]:
        parent = parent[key]
    parent[field[-1]] = value
    path.write_text(json.dumps(damaged))
    for argv in (["catalog", "show"], ["report", "perfect"],
                 ["eval", "relabel", "--predictions", str(report), "--out", str(out)]):
        assert _exit_code_of([*argv, "--catalog", str(path)]) in (0, 2)


def _exit_code_of(argv) -> int:
    """``dispatch(argv)``'s exit code; a failure must be one ``error:`` line on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = dispatch(argv)
    assert code == 0 or (err.getvalue().startswith("error: ")
                         and err.getvalue().count("\n") == 1)
    return code


@pytest.fixture(scope="module")
def fuzz_report(good_inputs, tmp_path_factory):
    """The good report JSON, a file to write damaged copies to, and the good
    report and catalog to compare and relabel with."""
    return (json.loads(good_inputs["report"].read_text()),
            tmp_path_factory.mktemp("fuzz") / "report.json",
            good_inputs["report"], good_inputs["catalog"])


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from(["id", "true", "predicted", "fold"]),
       JSON_VALUES | st.sampled_from(["amber", "slate", "violet", "amber.000", "slate.004"]))
def test_report_commands_exit_0_or_2_on_any_prediction_field(fuzz_report, data, key, value):
    good, path, report, catalog = fuzz_report
    damaged = json.loads(json.dumps(good))
    predictions = data.draw(st.sampled_from(damaged["realizations"]))["predictions"]
    predictions[data.draw(st.integers(0, len(predictions) - 1))][key] = value
    path.write_text(json.dumps(damaged))
    out = path.with_name("out.json")
    for argv in (["eval", "compare", str(report), str(path)],
                 ["eval", "relabel", "--catalog", str(catalog), "--predictions", str(path)]):
        assert _exit_code_of([*argv, "--out", str(out)]) in (0, 2)
