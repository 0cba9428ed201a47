import tracemalloc
from math import comb

import numpy as np
import pytest

from corpusaudit.classify import classify_excerpt, nearest_labels, train
from corpusaudit.corpus import Corpus, Excerpt
from corpusaudit.errors import (
    ArtistLeakError,
    AuditError,
    DegenerateClassError,
    EmptyClassError,
    IncompleteFeaturesError,
    ParseError,
)
from corpusaudit.evaluate import (
    ConfusionTable,
    Partition,
    PredictionRecord,
    accuracy_summary,
    binomial_significance,
    figures_of_merit,
    make_partition,
    read_artist_folds,
    run_experiment,
    significance_test,
)
from corpusaudit.faults import build_catalog
from corpusaudit.features import apply_normalization, fit_normalization
from corpusaudit.synth import two_class_feature_corpus


def grid_corpus(n_labels=2, n_per_label=10, artists_per_label=5):
    labels = tuple(f"l{i}" for i in range(n_labels))
    excerpts = []
    for label in labels:
        for i in range(n_per_label):
            excerpts.append(Excerpt(id=f"{label}.{i:03d}", label=label,
                                    artist=f"{label}-artist{i % artists_per_label}"))
    return Corpus(labels=labels, excerpts=tuple(excerpts))


def test_st_partition_halves():
    corpus = grid_corpus()
    part = make_partition(corpus, "st", seed=1)
    assert len(part.folds) == 2
    all_ids = sorted(part.folds[0] + part.folds[1])
    assert all_ids == sorted(ex.id for ex in corpus.excerpts)
    assert abs(len(part.folds[0]) - len(part.folds[1])) <= 1


def test_st_partition_deterministic_and_seed_sensitive():
    corpus = grid_corpus()
    a = make_partition(corpus, "st", seed=1)
    b = make_partition(corpus, "st", seed=1)
    c = make_partition(corpus, "st", seed=2)
    assert a.folds == b.folds
    assert a.folds != c.folds


def test_realizations_differ():
    corpus = grid_corpus()
    a = make_partition(corpus, "st", seed=1, realization=0)
    b = make_partition(corpus, "st", seed=1, realization=1)
    assert a.folds != b.folds


def test_st_prime_removes_exclusions():
    corpus = grid_corpus()
    catalog = build_catalog(corpus, exact_groups=[("l0.000", "l0.001")])
    part = make_partition(corpus, "st-prime", seed=1, catalog=catalog)
    members = set(part.folds[0]) | set(part.folds[1])
    assert "l0.001" not in members
    assert "l0.000" in members
    assert len(members) == 19


def test_prime_without_catalog_errors():
    with pytest.raises(AuditError):
        make_partition(grid_corpus(), "st-prime", seed=1)


def test_af_partition_keeps_artists_whole():
    corpus = grid_corpus(n_per_label=12, artists_per_label=4)
    part = make_partition(corpus, "af", seed=0)
    artist_fold = {}
    for fold_idx, fold in enumerate(part.folds):
        for eid in fold:
            artist = corpus.get(eid).artist
            assert artist_fold.setdefault(artist, fold_idx) == fold_idx


def test_af_partition_balanced_per_class():
    corpus = grid_corpus(n_labels=3, n_per_label=12, artists_per_label=6)
    part = make_partition(corpus, "af", seed=0)
    for label in corpus.labels:
        n0 = sum(1 for eid in part.folds[0] if corpus.get(eid).label == label)
        n1 = sum(1 for eid in part.folds[1] if corpus.get(eid).label == label)
        assert abs(n0 - n1) <= 4


def test_af_unidentified_are_singletons():
    corpus = Corpus(labels=("x",), excerpts=(
        Excerpt(id="x.0", label="x", artist="A"),
        Excerpt(id="x.1", label="x", artist="A"),
        Excerpt(id="x.2", label="x"),
        Excerpt(id="x.3", label="x"),
    ))
    part = make_partition(corpus, "af", seed=0)
    members = set(part.folds[0]) | set(part.folds[1])
    assert members == {"x.0", "x.1", "x.2", "x.3"}
    fold_of = {eid: i for i, fold in enumerate(part.folds) for eid in fold}
    assert fold_of["x.0"] == fold_of["x.1"]


def repetition_corpus():
    """Two labels of unidentified singletons and one artist; under ``af`` without a
    catalog, fold 0 is x.2, x.a, y.1, y.3 and y.a, fold 1 the rest."""
    return Corpus(labels=("x", "y"), excerpts=(
        *(Excerpt(id=f"x.{i}", label="x") for i in range(4)),
        *(Excerpt(id=f"y.{i}", label="y") for i in range(4)),
        Excerpt(id="x.a", label="x", artist="A"), Excerpt(id="y.a", label="y", artist="A"),
    ))


def test_af_keeps_every_catalog_repetition_in_one_fold():
    """An exact group of two singletons, and a recording group that joins a
    singleton to artist A's atom: without the catalog both straddle the folds,
    and with it no group does, artist groups included."""
    corpus = repetition_corpus()
    catalog = build_catalog(corpus, exact_groups=[("x.1", "x.2")],
                            recording_groups=[("y.0", "y.a")])
    folds = [set(f) for f in make_partition(corpus, "af", catalog=catalog).folds]
    assert folds[0] | folds[1] == {ex.id for ex in corpus.excerpts}
    for group in catalog.repetitions:
        assert set(group.members) <= folds[0] or set(group.members) <= folds[1], group
    plain = [set(f) for f in make_partition(corpus, "af").folds]
    for group in ({"x.1", "x.2"}, {"y.0", "y.a"}):
        assert not (group <= plain[0] or group <= plain[1])


def test_af_catalog_join_pinned_to_both_folds_is_refused():
    corpus = grid_corpus(n_per_label=6, artists_per_label=3)
    catalog = build_catalog(corpus, exact_groups=[("l0.000", "l0.001")])
    manual = {"fold1": ["l0-artist0"], "fold2": ["l0-artist1"]}
    with pytest.raises(ArtistLeakError, match="share a recording"):
        make_partition(corpus, "af", artist_folds=read_artist_folds(manual), catalog=catalog)
    # pinned to one fold, the joined atom goes there whole
    manual = {"fold1": ["l0-artist0"]}
    part = make_partition(corpus, "af", artist_folds=read_artist_folds(manual), catalog=catalog)
    assert {"l0.000", "l0.001", "l0.003", "l0.004"} <= set(part.folds[0])


def test_af_manual_folds_respected():
    corpus = grid_corpus(n_per_label=6, artists_per_label=3)
    manual = {"fold1": ["l0-artist0"], "fold2": ["l0-artist1"]}
    part = make_partition(corpus, "af", seed=0, artist_folds=read_artist_folds(manual))
    fold_of = {eid: i for i, fold in enumerate(part.folds) for eid in fold}
    assert fold_of["l0.000"] == 0
    assert fold_of["l0.001"] == 1


def test_af_balances_the_other_artists_around_the_pinned_ones():
    """Pinned artists are placed first, so the greedy assignment counts them: every
    other artist goes to the fold that the pinned one left short."""
    corpus = Corpus(labels=("x",), excerpts=tuple(
        Excerpt(id=f"x.{i}", label="x", artist="pinned" if i < 4 else f"solo{i}")
        for i in range(8)))
    part = make_partition(corpus, "af", artist_folds=read_artist_folds({"fold1": ["pinned"]}))
    assert part.folds == (("x.0", "x.1", "x.2", "x.3"), ("x.4", "x.5", "x.6", "x.7"))


def test_af_manual_folds_double_assignment():
    corpus = grid_corpus()
    manual = {"fold1": ["l0-artist0"], "fold2": ["L0-Artist0"]}
    with pytest.raises(ArtistLeakError):
        make_partition(corpus, "af", seed=0, artist_folds=read_artist_folds(manual))


def test_af_manual_folds_malformed():
    with pytest.raises(ParseError):
        make_partition(grid_corpus(), "af", seed=0, artist_folds=read_artist_folds({"a": []}))


def test_unknown_scheme():
    with pytest.raises(ValueError):
        make_partition(grid_corpus(), "loocv", seed=0)


def echo_features(corpus, n_windows=3):
    """Features that encode the label index exactly."""
    index = {label: i for i, label in enumerate(corpus.labels)}
    return {ex.id: np.full((n_windows, 4), float(index[ex.label]) * 10.0)
            + np.arange(4) * 0.01
            for ex in corpus.excerpts}


def test_run_experiment_echo_classifier_is_diagonal():
    corpus = grid_corpus(n_labels=3, n_per_label=8)
    features = echo_features(corpus)
    part = make_partition(corpus, "st", seed=5)
    for kind in ("nn", "md", "mmd"):
        result = run_experiment(corpus, part, kind, features, seed=5)
        for table in result.tables:
            assert np.array_equal(table.counts, np.diag(np.diag(table.counts)))
        assert all(p.predicted_label == p.true_label for p in result.predictions)


def test_run_experiment_missing_features():
    corpus = grid_corpus()
    features = echo_features(corpus)
    features.pop("l0.000")
    part = make_partition(corpus, "st", seed=5)
    with pytest.raises(IncompleteFeaturesError):
        run_experiment(corpus, part, "md", features)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fold", [0, 1])
def test_run_experiment_refuses_a_non_finite_window(value, fold):
    """In either fold: every excerpt is a training excerpt of the other."""
    corpus = grid_corpus()
    features = echo_features(corpus)
    part = make_partition(corpus, "st", seed=5)
    eid = sorted(part.folds[fold])[-1]
    features[eid][2, 1] = value
    with pytest.raises(IncompleteFeaturesError,
                       match=f"excerpt '{eid}' window 2: feature 1 is {value}, not a finite"):
        run_experiment(corpus, part, "nn", features)


@pytest.mark.parametrize("n_per_label", [0, 1])
def test_run_experiment_without_excerpts_to_train_on(n_per_label):
    # one excerpt: st puts it in fold 0, and testing fold 0 leaves nothing to train on
    corpus = grid_corpus(n_labels=1, n_per_label=n_per_label)
    part = make_partition(corpus, "st", seed=5)
    with pytest.raises(EmptyClassError, match="fold 0 leaves no excerpts to train on"):
        run_experiment(corpus, part, "md", echo_features(corpus))


def test_run_experiment_deterministic():
    corpus, features, _ = two_class_feature_corpus(n_per_class=20,
                                                   n_duplicate_pairs=0, seed=6)
    part = make_partition(corpus, "st", seed=6)
    a = run_experiment(corpus, part, "nn", features, seed=6)
    b = run_experiment(corpus, part, "nn", features, seed=6)
    assert a.predictions == b.predictions


def per_excerpt_predictions(corpus, partition, kind, features, seed):
    """``run_experiment`` one excerpt at a time, kept as its oracle.

    Also counts the NN votes that tie, so a test can see it reached them.
    """
    out, ties = [], 0
    for i, test_fold in enumerate(partition.folds):
        train_ids = [eid for j, fold in enumerate(partition.folds) if j != i for eid in fold]
        train_x = np.concatenate([features[eid] for eid in train_ids])
        train_y = [corpus.labels.index(corpus.get(eid).label)
                   for eid in train_ids for _ in features[eid]]
        nmap = fit_normalization(train_x)
        model = train(kind, apply_normalization(nmap, train_x), train_y, corpus.labels)
        for j, eid in enumerate(sorted(test_fold)):
            vecs = apply_normalization(nmap, features[eid])
            rng = np.random.default_rng([seed, partition.realization, i, j])
            out.append(PredictionRecord(excerpt_id=eid, true_label=corpus.get(eid).label,
                                        predicted_label=classify_excerpt(model, vecs, rng),
                                        fold=i))
            if kind == "nn":
                counts = np.bincount(nearest_labels(model, vecs), minlength=len(corpus.labels))
                ties += np.sum(counts == counts.max()) > 1
    return out, ties


def test_run_experiment_equals_per_excerpt_loop():
    """Three classes, 1 to 12 windows per excerpt; excerpts ``l0.9xx`` copy
    windows of one excerpt per class from the other fold, so NN votes tie."""
    rng = np.random.default_rng(21)
    corpus = grid_corpus(n_labels=3, n_per_label=30)
    features = {ex.id: rng.normal(int(ex.id[1]) * 0.5, 1.0, size=(rng.integers(1, 13), 6))
                for ex in corpus.excerpts}
    halves = make_partition(corpus, "st", seed=21).folds
    planted = []
    for fold, other in ((0, 1), (1, 0)):
        sources = [next(eid for eid in halves[other] if eid.startswith(f"l{c}."))
                   for c in range(3)]
        for k in range(2 + fold):  # 2 windows from each of 2 or 3 classes
            eid = f"l0.9{fold}{k}"
            features[eid] = np.concatenate([features[src][:1].repeat(2, axis=0)
                                            for src in sources[:2 + k % 2]])
            planted.append((eid, fold))
    corpus = Corpus(labels=corpus.labels, excerpts=corpus.excerpts + tuple(
        Excerpt(id=eid, label="l0", artist=f"planted-{eid}") for eid, _ in planted))
    tie_folds = tuple(tuple(sorted(halves[f] + tuple(e for e, g in planted if g == f)))
                      for f in (0, 1))
    shuffled = sorted(ex.id for ex in corpus.excerpts)
    np.random.default_rng(23).shuffle(shuffled)
    thirds = tuple(tuple(sorted(shuffled[f::3])) for f in range(3))
    partitions = [Partition(scheme="st", folds=tie_folds, seed=21, realization=3),
                  make_partition(corpus, "st", seed=22, realization=1),
                  Partition(scheme="thirds", folds=thirds, seed=23)]
    for part in partitions:
        for kind in ("nn", "md", "mmd"):
            expected, ties = per_excerpt_predictions(corpus, part, kind, features, seed=9)
            assert run_experiment(corpus, part, kind, features, seed=9).predictions \
                == tuple(expected)
            if part is partitions[0] and kind == "nn":
                assert ties >= len(planted)


@pytest.mark.parametrize("n_folds, kind, bound", [
    (2, "nn", 4.0), (2, "md", 1.75), (2, "mmd", 2.6),
    (3, "nn", 6.5), (3, "md", 3.0), (3, "mmd", 5.0)])
def test_run_experiment_peak_memory_in_fold_matrices(n_folds, kind, bound):
    """The traced allocation peak of one ``run_experiment`` on 400 excerpts of
    9 windows, in units of one fold's window matrix (float64, 32 dimensions).

    With two folds, an NN model keeps its normalized training matrix and its
    test fold is a second one; the rest is the prefilter's float32 copy of the
    training matrix and its block workspace. MD keeps only class means and
    adds each 32-window block's distances straight into the per-excerpt sums:
    beside the test matrix, a block holds its differences to the means and
    numpy's iterator buffers for them, about half a fold matrix here, and no
    (windows x labels) matrix is kept. MMD adds the centered training matrix
    while it trains, and whitens the test windows one block at a time. With
    three folds, training takes two fold matrices, so a training matrix
    normalized into a copy, or a test matrix kept into the next fold, passes
    the bound.
    """
    corpus = grid_corpus(n_labels=10, n_per_label=40)
    rng = np.random.default_rng(24)
    features = {ex.id: rng.normal(int(ex.label[1:]) * 0.3, 1.0, size=(9, 32))
                for ex in corpus.excerpts}
    ids = sorted(features)
    rng.shuffle(ids)
    part = Partition(scheme="st", folds=tuple(tuple(sorted(ids[f::n_folds]))
                                              for f in range(n_folds)), seed=24)
    fold_matrix = max(map(len, part.folds)) * 9 * 32 * 8
    run_experiment(corpus, part, kind, features)  # lazy imports and caches first
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run_experiment(corpus, part, kind, features)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - base) / fold_matrix <= bound


def test_figures_of_merit_hand_example():
    counts = np.array([[8.0, 3.0],
                       [2.0, 7.0]])
    fom = figures_of_merit(ConfusionTable(labels=("a", "b"), counts=counts))
    assert fom.recall["a"] == pytest.approx(0.8)
    assert fom.recall["b"] == pytest.approx(0.7)
    assert fom.precision["a"] == pytest.approx(8 / 11)
    assert fom.precision["b"] == pytest.approx(7 / 9)
    assert fom.accuracy == pytest.approx(0.75)
    assert fom.fscore["a"] == pytest.approx(2 * 0.8 * (8 / 11) / (0.8 + 8 / 11))
    assert np.allclose(fom.confusion.sum(axis=0), 1.0)


def test_figures_of_merit_never_predicted_label():
    counts = np.array([[5.0, 5.0],
                       [0.0, 0.0]])
    fom = figures_of_merit(ConfusionTable(labels=("a", "b"), counts=counts))
    assert fom.precision["b"] is None
    assert fom.fscore["b"] is None
    assert fom.recall["b"] == 0.0


def test_figures_of_merit_empty_column():
    counts = np.array([[5.0, 0.0],
                       [0.0, 0.0]])
    with pytest.raises(DegenerateClassError):
        figures_of_merit(ConfusionTable(labels=("a", "b"), counts=counts))


def test_accuracy_summary():
    corpus = grid_corpus(n_labels=3, n_per_label=8)
    features = echo_features(corpus)
    results = [run_experiment(corpus, make_partition(corpus, "st", seed=7,
                                                     realization=r),
                              "md", features)
               for r in range(3)]
    mean, std = accuracy_summary(results)
    assert mean == pytest.approx(1.0)
    assert std == pytest.approx(0.0)


def test_binomial_exactness_against_enumeration():
    for n in (1, 2, 5, 8, 13):
        for t in range(n + 1):
            lo, hi = min(t, n - t), max(t, n - t)
            expected = (sum(comb(n, i) for i in range(lo + 1))
                        + sum(comb(n, i) for i in range(hi, n + 1))) / 2 ** n
            expected = min(expected, 1.0)
            result = binomial_significance(n, t)
            assert result.p == pytest.approx(expected, abs=1e-12)


def test_binomial_symmetry_and_edge_cases():
    assert binomial_significance(0, 0).p == 1.0
    for n, t in ((10, 2), (7, 7), (9, 4)):
        assert binomial_significance(n, t).p == pytest.approx(
            binomial_significance(n, n - t).p)
    # balanced split is never significant
    assert binomial_significance(10, 5).p == 1.0
    # extreme split on a large n is
    assert binomial_significance(20, 20).reject


def test_significance_test_counts_disagreements():
    truth = {f"e{i}": "a" for i in range(10)}
    p1 = [PredictionRecord(eid, t, "a" if i < 8 else "b", 0)
          for i, (eid, t) in enumerate(truth.items())]
    p2 = [PredictionRecord(eid, t, "a" if i >= 2 else "b", 0)
          for i, (eid, t) in enumerate(truth.items())]
    result = significance_test([p1], [p2])
    assert result.n == 4
    assert result.t12 == 2
    assert result.p == 1.0


def test_significance_test_identical_predictions():
    preds = [PredictionRecord(f"e{i}", "a", "a" if i % 2 else "b", 0)
             for i in range(10)]
    result = significance_test([preds], [list(preds)])
    assert result.n == 0 and result.p == 1.0 and not result.reject


def test_significance_test_mismatched_sets():
    with pytest.raises(AuditError):
        significance_test([[PredictionRecord("e1", "a", "a", 0)]],
                          [[PredictionRecord("e2", "a", "a", 0)]])
    preds = [PredictionRecord("e1", "a", "a", 0)]
    with pytest.raises(AuditError, match="ran 2 and 1 realizations"):
        significance_test([preds, preds], [preds])


def test_significance_test_refuses_two_true_labels_for_one_excerpt():
    preds = [PredictionRecord(f"e{i}", "a", "a", 0) for i in range(4)]
    other = [PredictionRecord(f"e{i}", "b" if i == 2 else "a", "b", 0) for i in range(4)]
    assert significance_test([preds, preds], [preds, list(preds)]).n == 0
    with pytest.raises(AuditError, match="excerpt 'e2' the true labels 'a' and 'b' in "
                                         "realization 1"):
        significance_test([preds, preds], [preds, other])


def test_significance_test_counts_every_realization():
    """An observation is an excerpt in one realization: three realizations
    of the same ten excerpts give the sum of their own counts."""
    rng = np.random.default_rng(8)
    systems = [[[PredictionRecord(f"e{i}", "a", "a" if rng.random() < 0.6 else "b", 0)
                 for i in range(10)] for _ in range(3)] for _ in range(2)]
    alone = [significance_test([r1], [r2]) for r1, r2 in zip(*systems)]
    result = significance_test(*systems)
    assert sum(r.n for r in alone) > max(r.n for r in alone) > 0
    assert (result.n, result.t12) == (sum(r.n for r in alone), sum(r.t12 for r in alone))
    assert result == binomial_significance(result.n, result.t12)


def test_repetition_bias_property():
    """Exact duplicates inflate random-split accuracy for NN more than MD."""
    nn_gaps, md_gaps = [], []
    for seed in range(10):
        corpus, features, pairs = two_class_feature_corpus(
            n_per_class=40, n_duplicate_pairs=12, separation=0.8, seed=seed)
        catalog = build_catalog(corpus, exact_groups=pairs)
        accs = {}
        for scheme in ("st", "st-prime"):
            results = [run_experiment(
                corpus,
                make_partition(corpus, scheme, seed=seed, catalog=catalog,
                               realization=r),
                kind, features, seed=seed)
                for r in range(3) for kind in ("nn",)]
            accs[("nn", scheme)] = accuracy_summary(results)[0]
            results = [run_experiment(
                corpus,
                make_partition(corpus, scheme, seed=seed, catalog=catalog,
                               realization=r),
                "md", features, seed=seed)
                for r in range(3)]
            accs[("md", scheme)] = accuracy_summary(results)[0]
        nn_gaps.append(accs[("nn", "st")] - accs[("nn", "st-prime")])
        md_gaps.append(accs[("md", "st")] - accs[("md", "st-prime")])
    assert np.mean(nn_gaps) > 0
    assert np.mean(nn_gaps) > np.mean(md_gaps)
