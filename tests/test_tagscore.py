import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusaudit.corpus import Corpus, Excerpt, TagCountSet
from corpusaudit.errors import DegenerateRowError, EmptyTagsError
from corpusaudit.tagscore import (
    delta_g,
    detect_mislabelings,
    label_profile,
    label_score,
    normalize_counts,
    score_matrix,
    top_tags,
)

# paired label scores reported for the ten-class reference corpus;
# last element of each row is the expected margin
REFERENCE_ROWS = {
    "blues": ([0.0841, 0, 0, 0, 0, 0, 0, 0, 0, 0], 0.0084),
    "classical": ([0, 0.1261, 0, 0, 0, 0, 0, 0, 0, 0], 0.0126),
    "country": ([0, 0, 0.0947, 0, 0, 0, 0, 0, 0, 0], 0.0095),
    "disco": ([0, 0, 0, 0.0527, 0.0008, 0, 0.0012, 0.0124, 0, 0.0055], 0.0040),
    "hiphop": ([0, 0, 0, 0.0008, 0.0791, 0, 0.0004, 0.0016, 0, 0.0014], 0.0078),
    "jazz": ([0, 0, 0, 0, 0, 0.0830, 0, 0, 0, 0.0025], 0.0081),
    "metal": ([0, 0, 0, 0.0012, 0.0004, 0, 0.0367, 0.0017, 0, 0.0158], 0.0021),
    "pop": ([0, 0, 0, 0.0124, 0.0016, 0, 0.0017, 0.0453, 0, 0.0089], 0.0033),
    "reggae": ([0, 0, 0, 0, 0, 0, 0, 0, 0.1220, 0], 0.0122),
    "rock": ([0, 0, 0, 0.0055, 0.0014, 0.0025, 0.0158, 0.0089, 0, 0.0249], 0.0009),
}


def brute_force_top_tags(pairs):
    """Exhaustive minimizer over all subsets satisfying both constraints."""
    total = sum(c for _, c in pairs)
    best = None
    for r in range(1, len(pairs) + 1):
        for subset in itertools.combinations(range(len(pairs)), r):
            inside = [pairs[i][1] for i in subset]
            outside = [pairs[i][1] for i in range(len(pairs)) if i not in subset]
            if outside and min(inside) <= max(outside):
                continue
            if 2 * sum(inside) <= total:
                continue
            best = sorted(pairs[i] for i in subset)
            break
        if best is not None:
            return best
    raise AssertionError("full set always qualifies")


def test_top_tags_worked_example():
    result = top_tags([("folk", 11), ("blues", 100), ("blues guitar", 90)])
    assert {t for t, _ in result.pairs} == {"blues", "blues guitar"}
    assert result.coverage == pytest.approx(190 / 201, abs=1e-12)
    assert result.coverage == pytest.approx(0.9453, abs=5e-4)


def test_top_tags_singleton():
    result = top_tags([("jazz", 50)])
    assert result.pairs == (("jazz", 50),)
    assert result.coverage == 1.0


def test_top_tags_all_equal_falls_back_to_full_set():
    result = top_tags([("a", 5), ("b", 5), ("c", 5)])
    assert len(result.pairs) == 3
    assert result.coverage == 1.0


def test_top_tags_tied_counts_stay_together():
    # 40+40 > half of 110 but the tie with the next 20 forces a strict drop
    result = top_tags([("a", 40), ("b", 40), ("c", 20), ("d", 10)])
    assert {t for t, _ in result.pairs} == {"a", "b"}


def test_top_tags_empty_input():
    with pytest.raises(EmptyTagsError):
        top_tags([])


def test_top_tags_matches_brute_force_on_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n = rng.integers(1, 13)
        pairs = [(f"t{i}", int(rng.integers(1, 101))) for i in range(n)]
        got = sorted(top_tags(pairs).pairs)
        assert got == brute_force_top_tags(pairs)


@given(st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=10))
@settings(max_examples=200, deadline=None)
def test_top_tags_invariants(counts):
    pairs = [(f"t{i}", c) for i, c in enumerate(counts)]
    result = top_tags(pairs)
    total = sum(counts)
    inside = [c for _, c in result.pairs]
    outside_max = max((c for t, c in pairs if t not in {x for x, _ in result.pairs}),
                      default=0)
    assert 2 * sum(inside) > total
    assert min(inside) > outside_max
    assert result.coverage == pytest.approx(sum(inside) / total)


def test_label_profile_single_tag():
    profile = label_profile("rock", [[("rock", 10)]])
    assert profile.top.pairs == (("rock", 1.0),)


def test_label_profile_pooled_hand_arithmetic():
    profile = label_profile("x", [[("a", 10)], [("a", 10), ("b", 2)]])
    # pooled {a:20, b:2}; normalized a=20/22; the top-tag rule keeps only a
    assert profile.top.pairs == (("a", pytest.approx(20 / 22)),)


def test_label_profile_order_invariant():
    sets_a = [[("a", 3)], [("b", 5)], [("a", 2), ("c", 1)]]
    pa = label_profile("x", sets_a)
    pb = label_profile("x", list(reversed(sets_a)))
    assert pa == pb


def test_label_score_disjoint_is_zero():
    profile = label_profile("x", [[("a", 1)]])
    assert label_score({"z": 1.0}, profile) == 0.0


def test_label_score_hand_arithmetic():
    profile = label_profile("x", [[("a", 6), ("b", 4)]])
    assert label_score({"a": 0.5, "c": 0.5}, profile) == pytest.approx(0.30)


def test_label_score_self_profile():
    # top tags keep only a (6 > 10/2); normalized weight 0.6, so score 0.36
    profile = label_profile("x", [[("a", 6), ("b", 4)]])
    assert label_score(dict(profile.top.pairs), profile) == pytest.approx(0.36)


def test_score_matrix_disjoint_profiles():
    profiles = [label_profile("x", [[("a", 1)]]), label_profile("y", [[("b", 1)]])]
    m = score_matrix(profiles)
    assert m.scores[0, 1] == 0.0 and m.scores[1, 0] == 0.0
    assert m.scores[0, 0] == 1.0 and m.scores[1, 1] == 1.0


def test_score_matrix_shared_tag_symmetric():
    profiles = [label_profile("x", [[("a", 3), ("b", 2)]]),
                label_profile("y", [[("a", 4), ("c", 1)]])]
    m = score_matrix(profiles)
    assert np.allclose(m.scores, m.scores.T)
    assert m.scores[0, 1] > 0
    assert np.all(m.scores >= 0) and np.all(m.scores <= 1)


@pytest.mark.parametrize("label", sorted(REFERENCE_ROWS))
def test_delta_reproduces_reference_margins(label):
    row, expected = REFERENCE_ROWS[label]
    assert delta_g(row) == pytest.approx(expected, abs=5e-5)


def test_delta_examples():
    blues = [0.0841] + [0.0] * 9
    assert delta_g(blues) == pytest.approx(0.00841, abs=1e-12)
    disco = REFERENCE_ROWS["disco"][0]
    assert delta_g(disco) == pytest.approx((0.0527 - 0.0124) / 10, abs=1e-12)
    rock = REFERENCE_ROWS["rock"][0]
    assert delta_g(rock) == pytest.approx((0.0249 - 0.0158) / 10, abs=1e-12)


def test_delta_degenerate_row():
    with pytest.raises(DegenerateRowError):
        delta_g([0.3, 0.3, 0.3])


def tagged_corpus():
    labels = ("one", "two")
    excerpts = (
        Excerpt(id="one.0", label="one", artist="A"),
        Excerpt(id="one.1", label="one", artist="B"),
        Excerpt(id="two.0", label="two", artist="C"),
        Excerpt(id="two.1", label="two"),  # unidentified; skipped
    )
    corpus = Corpus(labels=labels, excerpts=excerpts)
    tags = {
        "one.0": TagCountSet(owner="one.0", pairs=(("uno", 90), ("dos", 10))),
        "one.1": TagCountSet(owner="one.1", pairs=(("dos", 100),)),
        "two.0": TagCountSet(owner="two.0", pairs=(("dos", 80), ("tres", 20))),
        "two.1": TagCountSet(owner="two.1", pairs=(("dos", 50),)),
    }
    return corpus, tags


def test_detect_mislabelings_skips_unidentified():
    corpus, tags = tagged_corpus()
    profiles = [label_profile("one", [tags["one.0"], tags["one.1"]]),
                label_profile("two", [tags["two.0"]])]
    verdicts = detect_mislabelings(corpus, tags, profiles)
    assert {v.excerpt_id for v in verdicts} == {"one.0", "one.1", "two.0"}


def test_detect_mislabelings_perfect_excerpt_not_flagged():
    corpus = Corpus(labels=("one", "two"), excerpts=(
        Excerpt(id="one.0", label="one", artist="A"),
        Excerpt(id="two.0", label="two", artist="B"),
    ))
    tags = {
        "one.0": TagCountSet(owner="one.0", pairs=(("uno", 10),)),
        "two.0": TagCountSet(owner="two.0", pairs=(("dos", 10),)),
    }
    profiles = [label_profile("one", [tags["one.0"]]),
                label_profile("two", [tags["two.0"]])]
    verdicts = detect_mislabelings(corpus, tags, profiles)
    assert all(not v.flagged for v in verdicts)


def test_mislabel_rules_worked_values():
    """The flagging inequalities with the reference worked numbers."""
    diagonal, delta = 0.0527, 0.0040
    # rule: another label's score exceeds diagonal - delta
    assert 0.06415 > diagonal - delta
    assert not (0.018 < diagonal / 10)
    # rule: own score an order of magnitude small
    assert 0.004 < diagonal / 10


def test_scale_invariance_of_scores():
    pairs = [("a", 7), ("b", 3)]
    scaled = [("a", 700), ("b", 300)]
    profile = label_profile("x", [[("a", 1), ("c", 1)]])
    assert label_score(normalize_counts(pairs), profile) == pytest.approx(
        label_score(normalize_counts(scaled), profile))


def test_score_bound():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = {f"t{i}": w for i, w in enumerate(rng.dirichlet(np.ones(5)))}
        pool = [(f"t{i}", int(rng.integers(1, 50))) for i in range(8)]
        profile = label_profile("x", [pool])
        assert 0.0 <= label_score(x, profile) <= 1.0 + 1e-12


def test_matching_tag_increases_unnormalized_overlap():
    profile = label_profile("x", [[("a", 6), ("b", 4)]])
    base = {"c": 1.0}
    more = {"c": 1.0, "a": 0.5}
    assert label_score(more, profile) > label_score(base, profile)
