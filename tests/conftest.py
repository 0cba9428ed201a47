import os

import numpy as np
import pytest
from hypothesis import settings

from corpusaudit.corpus import Corpus, Excerpt

# "ci" draws the same examples on every run and keeps no example database, so
# a CI run's verdict does not depend on the run; local runs keep exploring at
# random. Select it with HYPOTHESIS_PROFILE=ci.
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def small_corpus():
    labels = ("alpha", "beta", "gamma")
    excerpts = (
        Excerpt(id="alpha.000", label="alpha", artist="Ann A", title="Song One"),
        Excerpt(id="alpha.001", label="alpha", artist="Ann A", title="Song Two"),
        Excerpt(id="alpha.002", label="alpha"),
        Excerpt(id="beta.000", label="beta", artist="Bob B", title="Song One"),
        Excerpt(id="beta.001", label="beta", artist="Cat C", title="Song Three"),
        Excerpt(id="gamma.000", label="gamma", artist="Dan D", title="Song Four"),
    )
    return Corpus(labels=labels, excerpts=excerpts)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


_criterion_outcomes: dict[str, str] = {}


def pytest_runtest_logreport(report):
    """Track one verdict per acceptance criterion for the summary."""
    if "test_criterion_" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    key = name.removeprefix("test_criterion_")
    if report.when == "call":
        _criterion_outcomes[key] = report.outcome.upper()
    elif report.when == "setup" and report.skipped:
        _criterion_outcomes[key] = "SKIPPED"


def pytest_terminal_summary(terminalreporter):
    if not _criterion_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for key in sorted(_criterion_outcomes):
        number, _, slug = key.partition("_")
        label = slug.replace("_", " ")
        terminalreporter.write_line(
            f"criterion {number} ({label}): {_criterion_outcomes[key]}")
