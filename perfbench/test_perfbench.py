"""The benchmark's own tests: tiny runs of every workload, tampering, tracer.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import checks, layers, run, workloads
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent


def bench(*args, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def tiny_results():
    out = {}
    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            done = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", trace, "--tiny")
            assert done.returncode == 0, done.stderr
            out[workload, trace] = json.loads(done.stdout.strip().splitlines()[-1])
    return out


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_reports_every_metric_with_its_unit(tiny_results, workload, trace):
    result = tiny_results[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.END_TO_END if trace == "0" else layers.PER_LAYER
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {name: unit for name, unit, _ in spec}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_traced_runs_separate_the_layers(tiny_results):
    def m(workload):
        return {k: v["value"] for k, v in tiny_results[workload, "1"]["metrics"].items()}

    clips = workloads.TINY["reaudit"]["clips"]
    reaudit = m("reaudit")
    assert reaudit["fingerprint.find_peaks.calls"] == 0
    assert reaudit["features.frame_features.calls"] == 0
    assert reaudit["fingerprint.match.calls"] == clips * (clips - 1) // 2
    grid = m("eval_grid")
    assert grid["corpus.load_audio.calls"] == 0
    assert all(v == 0 for k, v in grid.items() if k.startswith("fingerprint."))
    ingest = m("ingest")
    assert all(v == 0 for k, v in ingest.items() if k.startswith("classify."))
    for values in (reaudit, grid, ingest):
        assert values["trace.coverage"] == pytest.approx(1.0, abs=0.02)


def tamper_after(monkeypatch, command, edit):
    """Make ``dispatch`` edit the --out file of one command after it runs."""
    dispatch = workloads.cli.dispatch

    def tampering(argv):
        rc = dispatch(argv)
        if argv[:2] == command:
            edit(Path(argv[argv.index("--out") + 1]))
        return rc

    monkeypatch.setattr(workloads.cli, "dispatch", tampering)


def run_twice(tmp_path, monkeypatch, name, command, edit):
    workload = workloads.make(name, tiny=True)
    workload.setup(tmp_path, seed=5)
    runner = workloads.Runner()
    workload.rep(runner)
    assert runner.failed == 0, runner.problems
    tamper_after(monkeypatch, command, edit)
    workload.rep(runner)
    return runner


def test_edited_dupes_csv_counts_as_a_failure(tmp_path, monkeypatch):
    def edit(path):
        with path.open("a") as fh:
            fh.write("blues.00000,rock.00000,1.500000,0\n")

    runner = run_twice(tmp_path, monkeypatch, "reaudit", ["audit", "dupes"], edit)
    assert runner.failed == 1
    assert any("outside" in p for p in runner.problems)


def test_edited_report_counts_as_a_failure(tmp_path, monkeypatch):
    def edit(path):
        report = json.loads(path.read_text())
        preds = report["realizations"][0]["predictions"]
        preds.append(dict(preds[0]))
        path.write_text(json.dumps(report))

    runner = run_twice(tmp_path, monkeypatch, "eval_grid", ["eval", "run"], edit)
    assert runner.failed >= 9  # every eval run of the second repetition
    assert any("exactly once" in p for p in runner.problems)


def test_changed_bytes_count_as_a_failure(tmp_path, monkeypatch):
    def edit(path):
        path.write_text(path.read_text() + "\n")

    runner = run_twice(tmp_path, monkeypatch, "eval_grid", ["report", "perfect"], edit)
    assert runner.failed == 1
    assert any("differs from the first repetition" in p for p in runner.problems)


def test_check_dupes_rejects_scores_outside_the_unit_interval(tmp_path):
    path = tmp_path / "dupes.csv"
    path.write_text("id_a,id_b,score,offset_frames\na,b,1.2,0\n")
    assert checks.check_dupes(path, ["a", "b"], 0.25)
    path.write_text("id_a,id_b,score,offset_frames\na,b,0.9,0\n")
    assert checks.check_dupes(path, ["a", "b"], 0.25) == []


def test_tracer_rebinds_where_functions_are_looked_up_and_restores_them():
    from corpusaudit import cli, corpus, evaluate, features, fingerprint

    originals = (cli.load_audio, fingerprint.stft_magnitude, evaluate.train,
                 evaluate.classify_excerpt, evaluate.apply_normalization)
    tracer = Tracer(layers.TARGETS)
    tracer.install()
    try:
        assert cli.load_audio is corpus.load_audio is not originals[0]
        assert fingerprint.stft_magnitude is features.stft_magnitude is not originals[1]
        assert evaluate.train.__wrapped__ is originals[2]
        assert evaluate.classify_excerpt.__wrapped__ is originals[3]
        assert evaluate.apply_normalization.__wrapped__ is originals[4]
    finally:
        tracer.uninstall()
    assert (cli.load_audio, fingerprint.stft_magnitude, evaluate.train,
            evaluate.classify_excerpt, evaluate.apply_normalization) == originals


def test_tracer_reports_a_missing_function_as_absent():
    tracer = Tracer({("fingerprint", "match_all"): None, ("fingerprint", "gone"): None})
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["fingerprint.gone"]


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
