import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from corpusaudit.classify import (
    BLOCK,
    COV_REG_SCALE,
    PREFILTER_MAX_ABS,
    TrainedModel,
    classify_excerpt,
    classify_excerpts,
    log_posteriors,
    nearest_labels,
    train,
    vote,
)
from corpusaudit.errors import EmptyClassError


def reference_nearest(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """The one-``cdist`` formulation of ``nearest_labels``, kept as its oracle."""
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    dists = cdist(vectors, model.train_x)
    return model.train_y[np.argmin(dists, axis=1)]


def toy_training(seed=0, n=20, dim=4, sep=3.0):
    rng = np.random.default_rng(seed)
    xa = rng.normal(0.0, 1.0, size=(n, dim))
    xb = rng.normal(sep, 1.0, size=(n, dim))
    x = np.vstack([xa, xb])
    y = ["a"] * n + ["b"] * n
    return x, y


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        train("svm", np.zeros((2, 2)), ["a", "b"])


def test_md_means_equal_single_vectors():
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    model = train("md", x, ["a", "b"])
    assert np.array_equal(model.means, x)


def test_nn_stores_duplicates():
    x = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
    model = train("nn", x, ["a", "a", "b"])
    assert model.train_x.shape == (3, 2)


def test_empty_class_error():
    with pytest.raises(EmptyClassError):
        train("md", np.zeros((2, 2)), ["a", "a"], label_order=("a", "b"))


def test_mmd_covariance_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(30, 5))
    model = train("mmd", x, ["a"] * 15 + ["b"] * 15)
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    lam = COV_REG_SCALE * np.trace(cov) / cov.shape[0]
    expected = np.linalg.inv(cov + lam * np.eye(5))
    assert np.allclose(model.cov_inv, expected, rtol=1e-9)


def test_mmd_covariance_spd_even_when_singular():
    # rank-deficient training data still inverts after regularization
    x = np.zeros((10, 4))
    x[:, 0] = np.arange(10.0)
    model = train("mmd", x, ["a"] * 5 + ["b"] * 5)
    eigvals = np.linalg.eigvalsh(np.linalg.inv(model.cov_inv))
    assert np.all(eigvals > 0)


def test_md_simple_example():
    model = train("md", np.array([[0.0, 0.0], [1.0, 1.0]]), ["a", "b"])
    vecs = np.tile([0.1, 0.1], (9, 1))
    assert classify_excerpt(model, vecs) == "a"


def test_md_equals_mmd_under_identity_covariance():
    rng = np.random.default_rng(2)
    x, y = toy_training(seed=3)
    md = train("md", x, y)
    mmd = TrainedModel(kind="mmd", labels=md.labels, means=md.means,
                       cov_inv=np.eye(x.shape[1]))
    for _ in range(50):
        vecs = rng.normal(1.5, 2.0, size=(9, x.shape[1]))
        assert classify_excerpt(md, vecs) == classify_excerpt(mmd, vecs)


def test_nn_unanimous_windows():
    x, y = toy_training()
    model = train("nn", x, y)
    vecs = np.zeros((9, x.shape[1]))
    assert classify_excerpt(model, vecs, np.random.default_rng(0)) == "a"


def test_nn_tie_break_frequency():
    """A 4/4/1 window split picks each modal label about half the time."""
    model = train("nn", np.array([[0.0], [10.0], [20.0]]), ["a", "b", "c"])
    vecs = np.array([[0.0]] * 4 + [[10.0]] * 4 + [[20.0]])
    rng = np.random.default_rng(123)
    picks = [classify_excerpt(model, vecs, rng) for _ in range(10000)]
    freq_a = picks.count("a") / len(picks)
    freq_b = picks.count("b") / len(picks)
    assert freq_a == pytest.approx(0.5, abs=0.05)
    assert freq_b == pytest.approx(0.5, abs=0.05)
    assert picks.count("c") == 0


def test_nn_duplicate_across_split_is_recovered():
    rng = np.random.default_rng(4)
    x, y = toy_training(seed=5)
    model = train("nn", x, y)
    dup = x[3] + 0.0
    assert classify_excerpt(model, np.tile(dup, (9, 1)), rng) == y[3]


def test_nn_distance_tie_breaks_by_training_index():
    model = train("nn", np.array([[0.0], [0.0]]), ["a", "b"])
    assert nearest_labels(model, np.array([[0.0]]))[0] == 0


def test_determinism_fixed_seed():
    x, y = toy_training(seed=6)
    model = train("nn", x, y)
    vecs = np.array([[0.0]] * 4 + [[3.0]] * 4 + [[1.5]])
    vecs = np.tile(vecs, (1, x.shape[1]))
    a = [classify_excerpt(model, vecs, np.random.default_rng(77)) for _ in range(20)]
    b = [classify_excerpt(model, vecs, np.random.default_rng(77)) for _ in range(20)]
    assert a == b


def test_log_posterior_shift_invariance():
    x, y = toy_training(seed=7)
    model = train("mmd", x, y)
    rng = np.random.default_rng(8)
    vecs = rng.normal(size=(9, x.shape[1]))
    lp = log_posteriors(model, vecs)
    assert np.argmax(lp) == np.argmax(lp + 42.0)


def test_vote_majority_without_tie():
    rng = np.random.default_rng(9)
    assert vote(np.array([0, 0, 0, 1, 1]), 2, rng) == 0


def test_separated_classes_high_accuracy():
    x, y = toy_training(seed=10, sep=6.0)
    rng = np.random.default_rng(11)
    for kind in ("nn", "md", "mmd"):
        model = train(kind, x, y)
        correct = 0
        for _ in range(40):
            label = "a" if rng.random() < 0.5 else "b"
            mu = 0.0 if label == "a" else 6.0
            vecs = rng.normal(mu, 1.0, size=(9, x.shape[1]))
            correct += classify_excerpt(model, vecs, rng) == label
        assert correct >= 38


def _nn_case(seed, dim, n_train, n_test, offset, step):
    """Grid points around ``offset`` (many exact ties), plus test rows that
    copy a training row, sit one ulp from one, or are all zero."""
    rng = np.random.default_rng(seed)
    train_x = offset + step * rng.integers(-2, 3, size=(n_train, dim))
    test_x = offset + step * rng.integers(-2, 3, size=(n_test, dim))
    kind = rng.integers(0, 5, size=n_test)
    source = train_x[rng.integers(0, n_train, size=n_test)]
    test_x[kind == 1] = source[kind == 1]
    nudged = np.nextafter(source, rng.choice([-np.inf, np.inf], size=source.shape))
    test_x[kind == 2] = nudged[kind == 2]
    test_x[kind == 3] = 0.0
    test_x[kind == 4] += rng.normal(0.0, 1.0, size=test_x[kind == 4].shape)
    if rng.random() < 0.3:
        train_x[rng.integers(0, n_train)] = 0.0
    return train_x, test_x, rng.integers(0, 3, size=n_train)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 60),
       st.integers(1, 2 * BLOCK + 5),
       st.sampled_from([0.0, 1.0, -3.5, 1e6, -1e6, 1e12, 1e90]),
       st.sampled_from([1.0, 0.25, 1e-3, 1e-9, 0.0]))
@example(0, 32, 50, 70, 0.0, 0.0)      # every distance ties at zero
@example(1, 32, 60, 70, 1e6, 1e-3)     # large common offset, small spread
@example(2, 1, 2, 1, 5e-324, 5e-324)   # subnormal values
def test_nearest_labels_equals_reference(seed, dim, n_train, n_test, offset, step):
    train_x, test_x, y = _nn_case(seed, dim, n_train, n_test, offset, step)
    model = train("nn", train_x, [f"l{k}" for k in y], label_order=("l0", "l1", "l2"))
    assert np.array_equal(nearest_labels(model, test_x), reference_nearest(model, test_x))


@pytest.mark.parametrize("where", ["both", "train", "test", "test_block"])
@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, 10 * PREFILTER_MAX_ABS])
def test_nearest_labels_without_prefilter_equals_reference(special, where):
    rng = np.random.default_rng(12)
    train_x = rng.integers(0, 3, size=(40, 4)).astype(float)
    test_x = rng.integers(0, 3, size=(BLOCK + 9, 4)).astype(float)
    train_x[0] = 50.0  # no finite window's neighbor; argmin of a nan row picks it
    if where in ("both", "train"):
        train_x[[3, 17], 1] = special
    if where in ("both", "test"):
        test_x[[0, 33], 2] = special
    if where == "test_block":  # every window of the first block
        test_x[:BLOCK] = special
    model = train("nn", train_x, [f"r{i:02d}" for i in range(40)])  # one label per row
    assert np.array_equal(nearest_labels(model, test_x), reference_nearest(model, test_x))


@pytest.mark.parametrize("kind", ["nn", "md", "mmd"])
def test_classify_excerpts_equals_one_excerpt_at_a_time(kind):
    """Excerpts of 0 to 40 windows, stacked across block edges, with NN ties."""
    rng = np.random.default_rng(13)
    x, y = toy_training(seed=14, dim=3, sep=1.0)
    model = train(kind, x, y)
    sizes = [0, 1, 2, 9, 9, 40, 4, 9, 31, 2, 0, 9]
    vectors = [x[rng.integers(0, len(x), size=n)] + rng.normal(0, 0.2, size=(n, 3))
               if j % 2 else x[rng.integers(0, len(x), size=n)]  # exact copies
               for j, n in enumerate(sizes)]
    vectors[2] = x[[0, -1]]  # one window of each label: an NN vote tie
    got = classify_excerpts(model, np.concatenate(vectors), sizes,
                            lambda j: np.random.default_rng([3, j]))
    expected = [classify_excerpt(model, v, np.random.default_rng([3, j]))
                for j, v in enumerate(vectors)]
    assert got == expected


def reference_log_posteriors(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """``log_posteriors`` without blocking, kept as its oracle."""
    diffs = vectors[:, None, :] - model.means[None, :, :]
    if model.kind == "md":
        sq = np.sum(diffs * diffs, axis=2)
    else:
        sq = np.einsum("vld,de,vle->vl", diffs, model.cov_inv, diffs)
    return -0.5 * np.sum(sq, axis=0)


@pytest.mark.parametrize("kind", ["md", "mmd"])
@pytest.mark.parametrize("n_windows", [1, 9, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_log_posteriors_blocking_changes_no_bit(kind, n_windows):
    x, y = toy_training(seed=15, dim=32)
    model = train(kind, x, y)
    vectors = np.random.default_rng(16).normal(1.0, 2.0, size=(n_windows, 32))
    assert np.array_equal(log_posteriors(model, vectors),
                          reference_log_posteriors(model, vectors))
