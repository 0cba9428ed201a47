"""Each demo asserts its own result; running its ``main()`` checks it still holds.
The README's Library example runs too."""

import runpy
from pathlib import Path

import pytest

from corpusaudit import fingerprint

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, capsys):
    runpy.run_path(str(demo), run_name="demo")["main"]()
    assert capsys.readouterr().out


def test_readme_library_example_runs(capsys):
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n")[1]
    code = section.split("\n## ")[0].split("```python\n")[1].split("```")[0]
    exec(code, {})
    assert float(capsys.readouterr().out) >= fingerprint.DEFAULT_THRESHOLD
