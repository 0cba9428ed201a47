"""Each demo asserts its own result; running its ``main()`` checks it still holds."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="demo")["main"]()
    assert capsys.readouterr().out
