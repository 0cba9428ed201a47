import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from corpusaudit import classify
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
    window_distances,
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
    assert np.allclose(model.whiten @ model.whiten.T, expected, rtol=1e-9)


def test_mmd_covariance_spd_even_when_singular():
    # rank-deficient training data still inverts after regularization
    x = np.zeros((10, 4))
    x[:, 0] = np.arange(10.0)
    model = train("mmd", x, ["a"] * 5 + ["b"] * 5)
    eigvals = np.linalg.eigvalsh(np.linalg.inv(model.whiten @ model.whiten.T))
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
                       whiten=np.eye(x.shape[1]))
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
@example(3, 32, 60, 70, 1e12, 1.0)     # float32 spacing 2**16 at the offset
@example(4, 32, 60, 70, 1e14, 1e3)
@example(5, 32, 60, 70, PREFILTER_MAX_ABS, 1e9)   # the largest prefiltered magnitude
@example(6, 32, 60, 70, 1e-40, 1e-40)  # float32 subnormals, distinct in float64
@example(7, 32, 60, 70, 1e-50, 1e-50)  # zero in float32, distinct in float64
@example(8, 5, 60, 70, 0.0, 1e-40)
@example(9, 5, 60, 70, 1e-50, 1e-50)
def test_nearest_labels_equals_reference(seed, dim, n_train, n_test, offset, step):
    train_x, test_x, y = _nn_case(seed, dim, n_train, n_test, offset, step)
    model = train("nn", train_x, [f"l{k}" for k in y], label_order=("l0", "l1", "l2"))
    assert np.array_equal(nearest_labels(model, test_x), reference_nearest(model, test_x))


@pytest.mark.parametrize("where", ["both", "train", "test", "test_block"])
# 1e101 overflows float32; the last value is just above the prefilter's limit
@pytest.mark.parametrize("special", [np.nan, np.inf, -np.inf, 1e101,
                                     np.nextafter(PREFILTER_MAX_ABS, np.inf)])
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


@pytest.mark.parametrize("radius", [1.0, 1e-22])
def test_nearest_labels_separates_what_float32_cannot(radius):
    """200 rows on a sphere around each window, radii 1e-6 apart in relative
    terms, far below the float32 prefilter's rounding. At radius 1e-22 the
    float32 products are subnormal. A bound without its eps or its
    subnormal term would keep a wrong row."""
    rng = np.random.default_rng(20)
    windows = rng.normal(0.0, 3 * radius, size=(3, 32))
    units = rng.normal(size=(3, 200, 32))
    units /= np.linalg.norm(units, axis=2, keepdims=True)
    radii = radius * (1 + 1e-6 * rng.permuted(np.tile(np.arange(200.0), (3, 1)), axis=1))
    train_x = (windows[:, None, :] + radii[:, :, None] * units).reshape(600, 32)
    model = train("nn", train_x, [f"r{i:03d}" for i in range(600)])  # one label per row
    expected = np.argmin(radii, axis=1) + [0, 200, 400]
    assert np.array_equal(reference_nearest(model, windows), expected)
    assert np.array_equal(nearest_labels(model, windows), expected)


def test_nearest_labels_prefilter_prunes(monkeypatch):
    """Exact with any kept set, the kernel is fast only if the bound keeps few rows."""
    x, y = toy_training(seed=18, n=2250, dim=32)
    model = train("nn", x, y)
    rng = np.random.default_rng(19)
    windows = x[rng.integers(0, len(x), size=500)] + rng.normal(0.0, 0.5, size=(500, 32))
    scored = []

    def counting_cdist(a, b):
        scored.append(len(b))
        return cdist(a, b)

    monkeypatch.setattr(classify, "cdist", counting_cdist)
    got = nearest_labels(model, windows)
    assert len(scored) == -(-len(windows) // BLOCK)
    assert max(scored) <= 2 * BLOCK
    assert np.array_equal(got, reference_nearest(model, windows))


@pytest.mark.parametrize("n_train", [BLOCK - 5, 4 * BLOCK + 3])
@pytest.mark.parametrize("n_test", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_nearest_labels_workspace_edges(monkeypatch, n_train, n_test):
    """The prefilter's workspace is reused from block to block, and the last
    block may be shorter. Labels equal the reference, and each block keeps
    the training rows it keeps when scored alone, in a workspace of its own."""
    train_x, test_x, y = _nn_case(30 + n_test, 32, n_train, n_test, 0.0, 1.0)
    model = train("nn", train_x, [f"l{k}" for k in y], label_order=("l0", "l1", "l2"))
    scored = []

    def recording_cdist(a, b):
        scored.append(b)
        return cdist(a, b)

    monkeypatch.setattr(classify, "cdist", recording_cdist)
    got = nearest_labels(model, test_x)
    assert np.array_equal(got, reference_nearest(model, test_x))
    whole_call = scored[:]
    scored.clear()
    for start in range(0, n_test, BLOCK):
        nearest_labels(model, test_x[start:start + BLOCK])
    assert len(whole_call) == len(scored) == -(-n_test // BLOCK)
    assert all(np.array_equal(a, b) for a, b in zip(whole_call, scored))


@pytest.mark.parametrize("kind, dim", [
    pytest.param(kind, dim, id=kind if dim == 3 else f"{kind}-{dim}d")
    for dim in (3, 32) for kind in ("nn", "md", "mmd")])
def test_classify_excerpts_equals_one_excerpt_at_a_time(kind, dim):
    """Excerpts of 0 to 40 windows, stacked across block edges, with NN ties.

    The window distances are also compared bit for bit: a product whose
    rounding depends on how many rows it is given (BLAS ``@``, say) would
    make one excerpt's distances differ from the stacked run's.
    """
    rng = np.random.default_rng(13)
    x, y = toy_training(seed=14, dim=dim, sep=1.0)
    model = train(kind, x, y)
    sizes = [0, 1, 2, 9, 9, 40, 4, 9, 31, 2, 0, 9]
    vectors = [x[rng.integers(0, len(x), size=n)] + rng.normal(0, 0.2, size=(n, dim))
               if j % 2 else x[rng.integers(0, len(x), size=n)]  # exact copies
               for j, n in enumerate(sizes)]
    vectors[2] = x[[0, -1]]  # one window of each label: an NN vote tie
    got = classify_excerpts(model, np.concatenate(vectors), sizes,
                            lambda j: np.random.default_rng([3, j]))
    expected = [classify_excerpt(model, v, np.random.default_rng([3, j]))
                for j, v in enumerate(vectors)]
    assert got == expected
    if kind != "nn":
        assert np.array_equal(window_distances(model, np.concatenate(vectors)),
                              np.concatenate([window_distances(model, v) for v in vectors]))


def reference_log_posteriors(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """``log_posteriors`` without blocking, kept as its oracle."""
    means = model.means
    if model.kind == "mmd":
        vectors = np.einsum("nd,de->ne", vectors, model.whiten)
        means = np.einsum("nd,de->ne", means, model.whiten)
    diffs = vectors[:, None, :] - means[None, :, :]
    return -0.5 * np.sum(np.sum(diffs * diffs, axis=2), axis=0)


def einsum_log_posteriors(means: np.ndarray, precision: np.ndarray,
                          vectors: np.ndarray) -> np.ndarray:
    """The Mahalanobis formula (x - mu)^T P (x - mu), kept as the MMD model's oracle."""
    diffs = vectors[:, None, :] - means[None, :, :]
    return -0.5 * np.sum(np.einsum("vld,de,vle->vl", diffs, precision, diffs), axis=0)


@pytest.mark.parametrize("kind", ["md", "mmd"])
@pytest.mark.parametrize("n_windows", [1, 9, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_log_posteriors_blocking_changes_no_bit(kind, n_windows):
    x, y = toy_training(seed=15, dim=32)
    model = train(kind, x, y)
    vectors = np.random.default_rng(16).normal(1.0, 2.0, size=(n_windows, 32))
    assert np.array_equal(log_posteriors(model, vectors),
                          reference_log_posteriors(model, vectors))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 32), st.integers(1, 103),
       st.integers(2, 10))
@example(seed=66282, dim=1, n_windows=1, n_labels=7)  # a mean almost on the window
def test_mmd_log_posteriors_equal_einsum_oracle(seed, dim, n_windows, n_labels):
    """Whitened MD gives the Mahalanobis formula's values and, where its
    two best labels are not near a tie, its label.

    The kernel subtracts xL - muL after the products, so its error scales
    with ||xL||^2 + ||muL||^2, not with the distance: a mean that nearly
    coincides with a window gets a tiny distance with a large relative
    error. The bound is 1e-12 of that sum per window and label, never
    tighter than 1e-12 of the value itself.
    """
    rng = np.random.default_rng(seed)
    # correlated features whose scales spread over e**-2 to e**2
    basis = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    mix = basis * np.exp(rng.uniform(-2.0, 2.0, size=dim))
    centers = rng.normal(0.0, 1.0, size=(n_labels, dim))
    per_label = dim + 3
    x = np.concatenate([c + rng.normal(size=(per_label, dim)) @ mix for c in centers])
    y = np.repeat(np.arange(n_labels), per_label)
    vectors = (centers[rng.integers(0, n_labels, size=n_windows)]
               + rng.normal(0.0, 1.5, size=(n_windows, dim)) @ mix)
    model = train("mmd", x, [f"l{k}" for k in y], label_order=[f"l{k}" for k in range(n_labels)])
    centered = x - x.mean(axis=0)
    cov = centered.T @ centered / (len(x) - 1)
    lam = COV_REG_SCALE * np.trace(cov) / dim
    expected = einsum_log_posteriors(model.means, np.linalg.inv(cov + lam * np.eye(dim)),
                                     vectors)
    got = log_posteriors(model, vectors)
    norms = lambda a: np.sum(np.einsum("nd,de->ne", a, model.whiten) ** 2, axis=1)
    scale = np.sum(norms(vectors)) + len(vectors) * norms(model.means)
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)
    best, second = np.sort(expected)[::-1][:2]
    if best - second > 1e-9 * abs(best):
        assert np.argmax(got) == np.argmax(expected)


def test_mmd_whiten_same_bytes_for_any_blas_thread_count():
    # inv and cholesky are LAPACK calls; their 32 x 32 results, the einsum
    # covariance and the whitened distances must not follow the thread count
    script = (
        "import hashlib, numpy as np\n"
        "from corpusaudit.classify import train, window_distances\n"
        "rng = np.random.default_rng(17)\n"
        "z = rng.normal(size=(4500, 32))\n"
        "x = z + 0.5 * np.roll(z, 1, axis=1)\n"  # correlated, without a BLAS product
        "model = train('mmd', x, [f'l{k % 10}' for k in range(4500)])\n"
        "dists = window_distances(model, x[:999])\n"
        "print(hashlib.sha256(model.whiten.tobytes()).hexdigest(),\n"
        "      hashlib.sha256(dists.tobytes()).hexdigest())\n")
    src = Path(classify.__file__).resolve().parents[1]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(src))
        outputs.append(subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                      capture_output=True, text=True, timeout=120).stdout)
    assert outputs[0] == outputs[1]
