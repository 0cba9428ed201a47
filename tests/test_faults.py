import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusaudit.corpus import Corpus, Excerpt
from corpusaudit.evaluate import _artist_groups, make_partition
from corpusaudit.errors import (
    AuditError,
    DegenerateClassError,
    IncompleteVerdictError,
    IoError,
    ParseError,
    UnknownExcerptError,
)
from corpusaudit.faults import (
    Distortion,
    FaultCatalog,
    RepetitionGroup,
    apply_relabeling,
    artist_bounds,
    build_catalog,
    catalog_from_json,
    catalog_to_json,
    distortions_from_json,
    load_catalog,
    perfect_confusion,
    perfect_statistics,
    ranked_scores,
    relabel_map,
    save_catalog,
)
from corpusaudit.tagscore import MislabelVerdict


def verdict(eid, label, scores, flagged, rule=None):
    ranked = sorted(scores.items(), key=lambda p: -p[1])
    others = [(t, s) for t, s in ranked if t != label]
    return MislabelVerdict(
        excerpt_id=eid, label=label, own_score=scores.get(label, 0.0),
        scores=scores, best_other_label=others[0][0] if others else None,
        best_other_score=others[0][1] if others else 0.0,
        flagged=flagged, rule=rule)


def test_artist_groups_from_metadata(small_corpus):
    catalog = build_catalog(small_corpus)
    artist = [g for g in catalog.repetitions if g.kind == "artist"]
    assert artist == [RepetitionGroup(kind="artist", members=("alpha.000", "alpha.001"),
                                      evidence="metadata")]


def test_version_groups_exclude_same_recording(small_corpus):
    # alpha.000 and beta.000 share the title "Song One"
    catalog = build_catalog(small_corpus)
    versions = [g for g in catalog.repetitions if g.kind == "version"]
    assert [g.members for g in versions] == [("alpha.000", "beta.000")]
    # the same pair declared an exact repetition suppresses the version group
    catalog = build_catalog(small_corpus, exact_groups=[("alpha.000", "beta.000")])
    assert not [g for g in catalog.repetitions if g.kind == "version"]


def test_exclusions_keep_smallest_member(small_corpus):
    catalog = build_catalog(
        small_corpus,
        exact_groups=[("beta.001", "beta.000")],
        recording_groups=[("gamma.000", "alpha.002")],
        distortions=[Distortion("alpha.000", "clipped", 3.5),
                     Distortion("alpha.001", "hum", 12.0)])
    assert catalog.exclusions() == frozenset(
        {"beta.001", "gamma.000", "alpha.000"})


def test_distortion_exclusion_rule():
    assert Distortion("x", "static", 4.9).excluded
    assert not Distortion("x", "static", 5.0).excluded
    assert not Distortion("x", "static").excluded


@pytest.mark.parametrize("prefix", ["three", True, [4.0], {"s": 4}, -3, -0.5,
                                    float("nan"), float("inf"), float("-inf")])
def test_distortion_prefix_must_be_a_number(prefix):
    entries = [{"id": "a.000", "usable_prefix_seconds": 3},
               {"id": "a.001", "usable_prefix_seconds": prefix}]
    with pytest.raises(ParseError, match="entry 1"):
        distortions_from_json(entries)


def test_distortion_prefix_numbers_and_null_are_kept():
    entries = [{"id": "a.000", "usable_prefix_seconds": 3}, {"id": "a.001",
               "usable_prefix_seconds": 4.5}, {"id": "a.002", "usable_prefix_seconds": None},
               {"id": "a.003", "usable_prefix_seconds": 0}]
    assert [d.usable_prefix_seconds for d in distortions_from_json(entries)] == [3, 4.5, None, 0]


def test_unknown_distortion_id(small_corpus):
    with pytest.raises(UnknownExcerptError):
        build_catalog(small_corpus, distortions=[Distortion("nope.000")])


def test_unknown_recording_group_id(small_corpus):
    with pytest.raises(UnknownExcerptError, match="'nope.999'"):
        build_catalog(small_corpus, recording_groups=[("alpha.000", "nope.999")])


def test_unknown_exact_group_id(small_corpus):
    with pytest.raises(UnknownExcerptError, match="exact group 1 names unknown excerpt 'nope.9'"):
        build_catalog(small_corpus, exact_groups=[("alpha.000", "alpha.001"),
                                                  ("nope.9", "beta.000")])


def test_artist_bounds(small_corpus):
    # four distinct artists, one unidentified excerpt
    assert artist_bounds(small_corpus) == (4, 5)


def test_artist_bounds_normalizes_names():
    corpus = Corpus(labels=("x",), excerpts=(
        Excerpt(id="x.0", label="x", artist="Some Artist"),
        Excerpt(id="x.1", label="x", artist="  some   ARTIST "),
    ))
    assert artist_bounds(corpus) == (1, 1)


def test_catalog_partition_and_bounds_share_one_artist_key():
    # names that differ only in case and whitespace are one artist; a blank name is none
    corpus = Corpus(labels=("x", "y"), excerpts=(
        Excerpt(id="x.0", label="x", artist="The Band"),
        Excerpt(id="x.1", label="x", artist="  the   BAND "),
        Excerpt(id="y.0", label="y", artist="THE band"),
        Excerpt(id="x.2", label="x", artist="Other"),
        Excerpt(id="y.1", label="y", artist=" other"),
        Excerpt(id="x.3", label="x", artist="\t"),
        Excerpt(id="y.2", label="y", artist="   "),
        Excerpt(id="y.3", label="y", title="Song"),
        Excerpt(id="x.4", label="x"),
    ))
    groups = [g.members for g in build_catalog(corpus).repetitions if g.kind == "artist"]
    assert groups == [("x.2", "y.1"), ("x.0", "x.1", "y.0")]
    atoms = _artist_groups(corpus, {ex.id for ex in corpus.excerpts})
    assert sorted(tuple(sorted(a)) for a in atoms.values() if len(a) > 1) == sorted(groups)
    folds = [set(f) for f in make_partition(corpus, "af").folds]
    assert all(set(g) <= folds[0] or set(g) <= folds[1] for g in groups)
    assert artist_bounds(corpus) == (len(groups), len(groups) + 1)  # x.4 unidentified


def two_label_corpus():
    return Corpus(labels=("one", "two"), excerpts=(
        Excerpt(id="one.0", label="one", artist="A"),
        Excerpt(id="one.1", label="one", artist="B"),
        Excerpt(id="two.0", label="two", artist="C"),
        Excerpt(id="two.1", label="two", artist="D"),
    ))


def test_perfect_confusion_unflagged_diagonal():
    corpus = two_label_corpus()
    pc = perfect_confusion(build_catalog(corpus, deltas={"one": 0.01, "two": 0.01}))
    assert np.array_equal(pc.matrix, [[2.0, 0.0], [0.0, 2.0]])


def test_perfect_confusion_flagged_moves_weight():
    corpus = two_label_corpus()
    verdicts = [verdict("one.0", "one", {"one": 0.001, "two": 0.06}, True, "low_own")]
    pc = perfect_confusion(build_catalog(corpus, verdicts=verdicts,
                                         deltas={"one": 0.01, "two": 0.01}))
    assert pc.matrix[0, 0] == 1.0 and pc.matrix[1, 0] == 1.0


def test_perfect_confusion_margin_split():
    corpus = two_label_corpus()
    verdicts = [verdict("one.0", "one", {"one": 0.055, "two": 0.06}, True, "high_other")]
    pc = perfect_confusion(build_catalog(corpus, verdicts=verdicts,
                                         deltas={"one": 0.01, "two": 0.01}))
    assert pc.matrix[0, 0] == 1.5 and pc.matrix[1, 0] == 0.5


def test_perfect_confusion_all_zero_scores_spread():
    corpus = two_label_corpus()
    verdicts = [verdict("one.0", "one", {"one": 0.0, "two": 0.0}, True, "low_own")]
    pc = perfect_confusion(build_catalog(corpus, verdicts=verdicts,
                                         deltas={"one": 0.01, "two": 0.01}))
    assert pc.matrix[0, 0] == 1.5 and pc.matrix[1, 0] == 0.5


def test_perfect_confusion_adds_flagged_weight_before_the_diagonal():
    labels = ("a", "b", "c")
    corpus = Corpus(labels=labels, excerpts=tuple(
        Excerpt(id=f"{label}.{i}", label=label, artist=f"{label}{i}")
        for label in labels for i in range(6)))
    zero = {"a": 0.0, "b": 0.0, "c": 0.0}
    verdicts = [verdict("a.0", "a", zero, True, "low_own"),
                verdict("a.1", "a", zero, True, "low_own")]
    pc = perfect_confusion(build_catalog(corpus, verdicts=verdicts,
                                         deltas={l: 0.01 for l in labels}))
    third = 1.0 / 3
    assert pc.matrix[0, 0] == third + third + 4.0
    # excerpt order would round the other way: the order above is the rule
    assert pc.matrix[0, 0] != third + third + 1.0 + 1.0 + 1.0 + 1.0
    assert pc.matrix[1, 0] == pc.matrix[2, 0] == third + third


def test_ranked_scores_ties_go_to_label_order():
    index = {"a": 0, "b": 1, "c": 2}
    v = verdict("x", "b", {"c": 0.3, "b": 0.1, "a": 0.3}, True)
    assert ranked_scores(v, index) == [("a", 0.3), ("c", 0.3), ("b", 0.1)]
    with pytest.raises(IncompleteVerdictError):
        ranked_scores(verdict("y", "b", {}, True), index)


def test_relabel_map_takes_the_first_tied_label():
    corpus = two_label_corpus()
    catalog = build_catalog(corpus, verdicts=[
        verdict("two.0", "two", {"two": 0.2, "one": 0.2}, True, "high_other"),
        verdict("two.1", "two", {"two": 0.0, "one": 0.0}, True, "low_own"),
        verdict("one.0", "one", {"one": 0.1, "two": 0.4}, False)],
        deltas={"one": 0.01, "two": 0.01})
    assert relabel_map(catalog) == {"two.0": "one"}


def test_perfect_confusion_empty_scores_error():
    corpus = two_label_corpus()
    verdicts = [MislabelVerdict(excerpt_id="one.0", label="one", own_score=0.0,
                                scores={}, best_other_label=None,
                                best_other_score=0.0, flagged=True, rule="low_own")]
    with pytest.raises(IncompleteVerdictError):
        perfect_confusion(build_catalog(corpus, verdicts=verdicts,
                                        deltas={"one": 0.01, "two": 0.01}))


def test_perfect_confusion_columns_conserve_weight():
    rng = np.random.default_rng(0)
    labels = ("a", "b", "c")
    excerpts, verdicts = [], []
    for i in range(30):
        label = labels[i % 3]
        eid = f"{label}.{i:03d}"
        excerpts.append(Excerpt(id=eid, label=label, artist=f"ar{i}"))
        if rng.random() < 0.5:
            scores = {l: float(rng.random() * 0.1) for l in labels}
            if rng.random() < 0.1:
                scores = {l: 0.0 for l in labels}
            verdicts.append(verdict(eid, label, scores, flagged=True, rule="low_own"))
    corpus = Corpus(labels=labels, excerpts=tuple(excerpts))
    pc = perfect_confusion(build_catalog(corpus, verdicts=verdicts,
                                         deltas={l: 0.005 for l in labels}))
    assert np.allclose(pc.matrix.sum(axis=0), [10.0, 10.0, 10.0])


def test_perfect_statistics_values():
    pc = perfect_confusion(build_catalog(
        two_label_corpus(),
        verdicts=[verdict("one.0", "one", {"one": 0.001, "two": 0.06}, True, "low_own")],
        deltas={"one": 0.01, "two": 0.01}))
    stats = perfect_statistics(pc)
    assert stats.recall["one"] == pytest.approx(0.5)
    assert stats.recall["two"] == pytest.approx(1.0)
    assert stats.accuracy == pytest.approx(0.75)


def test_perfect_statistics_degenerate_column():
    corpus = Corpus(labels=("one", "two"), excerpts=(
        Excerpt(id="one.0", label="one", artist="A"),))
    pc = perfect_confusion(build_catalog(corpus))
    with pytest.raises(DegenerateClassError):
        perfect_statistics(pc)


def test_apply_relabeling():
    corpus = two_label_corpus()
    catalog = build_catalog(
        corpus,
        verdicts=[verdict("one.0", "one", {"one": 0.001, "two": 0.06}, True, "low_own"),
                  verdict("one.1", "one", {"one": 0.0, "two": 0.0}, True, "low_own"),
                  verdict("two.0", "two", {"one": 0.2, "two": 0.3}, False)],
        deltas={"one": 0.01, "two": 0.01})
    relabeled = apply_relabeling(corpus, catalog)
    assert relabeled.get("one.0").label == "two"
    assert relabeled.get("one.1").label == "one"  # zero scores keep the label
    assert relabeled.get("two.0").label == "two"


def test_catalog_json_round_trip(tmp_path, small_corpus):
    catalog = build_catalog(
        small_corpus,
        exact_groups=[("beta.000", "beta.001")],
        verdicts=[verdict("alpha.000", "alpha",
                          {"alpha": 0.02, "beta": 0.01, "gamma": 0.0},
                          False)],
        distortions=[Distortion("gamma.000", "static burst", 2.0)],
        deltas={"alpha": 0.002, "beta": 0.001, "gamma": 0.003})
    path = tmp_path / "catalog.json"
    save_catalog(catalog, path)
    loaded = load_catalog(path)
    assert loaded == catalog
    assert catalog_from_json(catalog_to_json(catalog)) == catalog


def test_save_catalog_io_error_names_the_file(tmp_path, small_corpus):
    path = tmp_path / "missing" / "catalog.json"
    with pytest.raises(IoError, match="cannot write catalog .*catalog.json"):
        save_catalog(build_catalog(small_corpus), path)
    with pytest.raises(IoError, match="cannot read catalog"):
        load_catalog(tmp_path)


def test_catalog_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"labels\": [\"x\"]}")
    with pytest.raises(ParseError):
        load_catalog(path)


def test_label_counts_recorded(small_corpus):
    catalog = build_catalog(small_corpus)
    assert catalog.label_counts == {"alpha": 3, "beta": 2, "gamma": 1}


# library inputs a saved catalog could not hold; each one once built a catalog
BUILD_REFUSALS = {
    "one_member_exact_group": ({"exact_groups": [("alpha.000",)]},
                               "exact group 0 holds fewer than two excerpt ids"),
    "self_repeating_recording_group": ({"recording_groups": [("alpha.001", "alpha.001")]},
                                       "recording group 0 repeats excerpt 'alpha.001'"),
    "repeated_distortion_id": ({"distortions": [Distortion("alpha.000"),
                                                Distortion("alpha.000", "again")]},
                               "entry 1 repeats id 'alpha.000'"),
    "negative_usable_prefix": ({"distortions": [Distortion("alpha.000", "", -1.0)]},
                               "usable_prefix_seconds must be a finite number >= 0"),
    "flagged_verdict_without_delta": (
        {"verdicts": [verdict("alpha.000", "alpha", {"alpha": 0.0, "beta": 0.1}, True,
                              "low_own")]},
        "no delta for label 'alpha'"),
    "verdict_label_outside_labels": (
        {"verdicts": [verdict("alpha.000", "violet", {"alpha": 0.1}, False, "none")]},
        "'alpha.000' names a label outside the catalog labels"),
}


@pytest.mark.parametrize("case", sorted(BUILD_REFUSALS))
def test_build_catalog_refuses_what_load_catalog_refuses(small_corpus, case):
    inputs, message = BUILD_REFUSALS[case]
    with pytest.raises(AuditError, match=message):
        build_catalog(small_corpus, **inputs)


LABELS = ("a", "b", "c")


def rarely(bad, good):
    """``bad`` in about one draw of sixteen, else ``good``."""
    return st.integers(0, 15).flatmap(lambda k: good if k else bad)


@st.composite
def catalog_inputs(draw):
    """A small corpus and build_catalog arguments drawn around it, a few of them bad."""
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True))
    names = st.none() | st.sampled_from(["x", "X ", "y"])
    sizes = [draw(st.integers(2 if k == 0 else 0, 3)) for k in range(len(labels))]
    excerpts = [Excerpt(id=f"{label}.{i}", label=label, artist=draw(names), title=draw(names))
                for label, size in zip(labels, sizes) for i in range(size)]
    unknown = draw(st.sampled_from([[], ["zz.0"]]))  # an id outside the corpus, or none
    ids = st.sampled_from([ex.id for ex in excerpts] + unknown)
    groups = st.lists(rarely(st.lists(ids, max_size=2),
                             st.lists(ids, min_size=2, max_size=3, unique=True)).map(tuple),
                      max_size=2)
    score = st.sampled_from([0.0, 0.01, 0.25, 1.0])
    scores = rarely(st.dictionaries(st.sampled_from(labels), score | st.just(math.nan)),
                    st.fixed_dictionaries({label: score for label in labels}))
    verdicts = [verdict(draw(ids), draw(rarely(st.just("d"), st.sampled_from(labels))),
                        draw(scores), flagged, "low_own" if flagged else "none")
                for flagged in draw(st.lists(st.booleans(), max_size=2))]
    prefix = rarely(st.just(-1.0), st.sampled_from([None, 0, 3.5, 7.0]))
    distortions = [Distortion(eid, "hum", draw(prefix))
                   for eid in draw(st.lists(ids, max_size=2))]
    delta = st.sampled_from([0.0, 0.01])
    deltas = draw(rarely(st.dictionaries(st.sampled_from(labels), delta),
                         st.fixed_dictionaries({label: delta for label in labels})))
    return Corpus(labels=tuple(labels), excerpts=tuple(excerpts)), {
        "exact_groups": draw(groups), "recording_groups": draw(groups),
        "verdicts": verdicts, "distortions": distortions, "deltas": deltas}


@settings(max_examples=200, deadline=None)
@given(catalog_inputs())
def test_every_built_catalog_loads_back(tmp_path_factory, drawn):
    corpus, inputs = drawn
    try:
        catalog = build_catalog(corpus, **inputs)
    except AuditError:
        return
    path = tmp_path_factory.getbasetemp() / "built-catalog.json"
    save_catalog(catalog, path)
    first = path.read_bytes()
    loaded = load_catalog(path, corpus)
    assert loaded == catalog and catalog_to_json(loaded) == catalog_to_json(catalog)
    save_catalog(loaded, path)
    assert path.read_bytes() == first
