"""Nearest-neighbor, minimum-distance and Mahalanobis classifiers.

All three operate on normalized texture vectors and label a whole
excerpt from its windows: NN takes a majority vote over per-window
nearest neighbors, breaking ties uniformly at random with a seeded
generator; MD and MMD sum equal-prior Gaussian log posteriors over the
windows and take the argmax, breaking ties by label order. MD uses an
identity covariance (negative squared Euclidean distance); MMD uses the
total covariance of the training set, regularized by lambda*I with
lambda = 1e-6 * trace / dim.

MMD is MD on whitened vectors. With P = inv(cov + lambda*I) = L L^T, L
its lower Cholesky factor, the Mahalanobis distance (x - mu)^T P (x - mu)
equals ||x L - mu L||^2, so windows and class means are multiplied by L
once and then scored as MD scores them. The covariance and those
products are fixed-order ``einsum`` sums, not BLAS products, whose last
digits can vary with the BLAS thread count and with the number of rows
in one call.

The one BLAS product left is NN's single-precision prefilter. It only
narrows which training rows ``cdist`` scores in double precision, with a
bound that keeps every nearest neighbor whatever the product's rounding,
so NN labels do not depend on it either.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import EmptyClassError

KINDS = ("nn", "md", "mmd")

COV_REG_SCALE = 1e-6

# windows scored at once: a distance block against ~4500 training rows is ~1 MB
BLOCK = 32

# The NN prefilter's float32 bounds hold up to this magnitude (squares and
# their d-term sums stay far below float32's 3.4e38) and this dimension;
# beyond either, it keeps every row.
PREFILTER_MAX_ABS = 1e15
PREFILTER_MAX_DIM = 2**20


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    labels: tuple[str, ...]
    seed: int = 0
    train_x: np.ndarray | None = None       # NN
    train_y: np.ndarray | None = None       # NN, label indices
    means: np.ndarray | None = None         # MD/MMD, (n_labels, dim)
    whiten: np.ndarray | None = None        # MMD, lower L with L L^T = precision


def train(kind: str, vectors: np.ndarray, labels, label_order=None,
          seed: int = 0) -> TrainedModel:
    """Fit a model on training vectors with one label per vector.

    An NN model keeps ``np.asarray(vectors, dtype=float)`` itself, not a
    copy: a float array passed in is shared, and changing it changes the model.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    vectors = np.asarray(vectors, dtype=float)
    labels = list(labels)
    if label_order is None:
        label_order = tuple(dict.fromkeys(labels))
    else:
        label_order = tuple(label_order)
    index = {label: i for i, label in enumerate(label_order)}
    y = np.array([index[label] for label in labels])

    if kind == "nn":
        return TrainedModel(kind=kind, labels=label_order, seed=seed,
                            train_x=vectors, train_y=y)

    means = np.empty((len(label_order), vectors.shape[1]))
    for i, label in enumerate(label_order):
        mask = y == i
        if not np.any(mask):
            raise EmptyClassError(f"no training vectors for label {label!r}")
        means[i] = vectors[mask].mean(axis=0)
    if kind == "md":
        return TrainedModel(kind=kind, labels=label_order, seed=seed, means=means)

    centered = vectors - vectors.mean(axis=0)
    denom = max(vectors.shape[0] - 1, 1)
    cov = np.einsum("ni,nj->ij", centered, centered) / denom
    lam = COV_REG_SCALE * np.trace(cov) / cov.shape[0]
    cov_reg = cov + lam * np.eye(cov.shape[0])
    return TrainedModel(kind=kind, labels=label_order, seed=seed, means=means,
                        whiten=np.linalg.cholesky(np.linalg.inv(cov_reg)))


def window_distances(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """Squared distance of each window to each class mean (MD/MMD only).

    Shape (n_windows, n_labels): Euclidean for MD, Mahalanobis under the
    regularized total covariance for MMD, which is the Euclidean distance
    between the window and the mean after both are multiplied by
    ``model.whiten``. That product is a two-operand ``einsum``, whose sum
    for a row does not depend on the other rows in the call. Windows are
    then scored ``BLOCK`` at a time. Each value depends on its own window
    only, so how windows are grouped into calls and blocks changes no bit
    of the result.
    """
    if model.kind not in ("md", "mmd"):
        raise ValueError("window distances are defined for MD/MMD only")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    means = model.means
    if model.kind == "mmd":
        vectors = np.einsum("nd,de->ne", vectors, model.whiten)
        means = np.einsum("nd,de->ne", means, model.whiten)
    out = np.empty((vectors.shape[0], len(model.labels)))
    for start in range(0, vectors.shape[0], BLOCK):
        diffs = vectors[start:start + BLOCK, None, :] - means[None, :, :]
        out[start:start + BLOCK] = np.sum(diffs * diffs, axis=2)
    return out


def log_posteriors(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """Per-class log posterior sums over the given windows (MD/MMD only)."""
    return -0.5 * np.sum(window_distances(model, vectors), axis=0)


def nearest_labels(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """Per-window nearest-training-neighbor label indices (NN only).

    The neighbor is ``argmin(cdist(vectors, train_x), axis=1)``, bit for
    bit: the smallest Euclidean distance as ``cdist`` rounds it, ties to
    the earliest training index. Windows go ``BLOCK`` at a time through
    a single-precision BLAS prefilter, and only the training rows it
    keeps are scored with ``cdist`` in double precision.

    Prefilter. The windows and training rows are rounded to float32 once
    per call. For window a and training row x, an sgemm and one float32
    addition give p = ||x||^2 - 2 a.x, which is ||a - x||^2 minus ||a||^2,
    a constant per window. Every row whose p lies within 2B of the
    window's smallest p is kept, with B = 4(d + 5) eps (||a||^2 + max
    ||x||^2) + 4(d + 5) t, where eps = 2u = 2**-23 is float32's epsilon,
    t = 2**-126 its smallest normal number and d the dimension; the
    norms and B are computed in float64. The limit, smallest p plus 2B,
    is rounded to float32 and then moved up one float32 step, so it is
    never below its float64 value. The kept rows of a block are scored
    against the whole block, in index order, and each window takes the
    argmin of its row.

    Why every cdist minimizer is kept. Let s = ||a||^2 + ||x||^2,
    D = ||a - x||^2 and q = D - ||a||^2 in exact arithmetic.
    - Rounding a value v to float32 changes it by at most u|v| + t: u in
      the normal range, below t when it lands among the subnormals or
      is flushed to zero, and reading such an input as zero (DAZ) stays
      within t as well. A term t|v| is at most u v^2 + u t. So using the
      rounded a and x moves 2 a.x by at most 4u s + 4d u t < 4u s + t.
    - A float32 sum of d products, in any order, blocked or threaded,
      with or without FMA, is within gamma_d = du/(1 - du) of the sum of
      their absolute values, which is s or less up to the rounding
      above (2|a.x| <= s). Each product and each addition that
      underflows adds at most t more, with or without flush-to-zero:
      2d t in all.
    - ||x||^2, summed in float64 and rounded to float32, is within
      1.01u ||x||^2 + t; adding it to the product costs u |p| + t,
      with |p| <= 2s.
    So the computed p is within gamma_{d+8} s + (2d + 3) t of q. cdist
    rounds each difference, square and partial sum in float64 and then
    takes the square root, so its value c has |c^2 - D| <= gamma'_{d+5} D
    <= 2 gamma'_{d+5} s, with gamma' float64's gamma; its underflow is
    far below t. If row j minimizes c, then c_j^2 <= c_k^2 for every row
    k, and chaining these bounds gives p_j <= p_k + (gamma_{d+8} +
    2 gamma'_{d+5}) (s_j + s_k) + (4d + 7) t, which is at most
    4(d + 8) u (||a||^2 + max ||x||^2) + (4d + 7) t while (d + 8) u <= 1/2.
    2B is twice that or more. The rest absorbs the float64 rounding of
    the norms, of B and of the limit, and a flush to zero of the limit
    or of a p, which moves it by less than t. So row j is kept, and
    since every kept set holds all minimizers of its window in index
    order, the argmin over it is the earliest minimizer.

    The bounds need finite values whose float32 squares and d-term sums
    cannot overflow, and (d + 8) u <= 1/2: if any value is not finite or
    exceeds ``PREFILTER_MAX_ABS`` in magnitude, or d exceeds
    ``PREFILTER_MAX_DIM``, every row is kept and the kernel is plain
    blocked cdist. Labels therefore depend neither on the BLAS thread
    count nor on how windows are blocked; only the kept sets may.

    Memory: besides ``-2 train_x^T`` in float32, the prefilter allocates
    one workspace per call, reused by every block: the block's windows in
    float32, its p block and that block's ``<=`` mask. The magnitude
    check reads ``min`` and ``max`` and copies nothing.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    train_x = model.train_x
    n_train, dim = train_x.shape
    prefilter = (dim <= PREFILTER_MAX_DIM
                 and _within_prefilter_range(train_x) and _within_prefilter_range(vectors))
    kept = np.arange(n_train)  # every row, unless the prefilter narrows it
    if prefilter:
        eps, tiny = float(np.finfo(np.float32).eps), float(np.finfo(np.float32).tiny)
        train_sq = np.einsum("ij,ij->i", train_x, train_x)
        bound = 4 * (dim + 5) * (eps * (np.einsum("ij,ij->i", vectors, vectors)
                                        + train_sq.max()) + tiny)
        train_sq32 = train_sq.astype(np.float32)
        minus_2xt = np.multiply(train_x.T, -2.0, dtype=np.float32, order="C")
        rows = min(BLOCK, vectors.shape[0])
        block32 = np.empty((rows, dim), dtype=np.float32)
        partial = np.empty((rows, n_train), dtype=np.float32)
        close = np.empty((rows, n_train), dtype=bool)
        any_close = np.empty(n_train, dtype=bool)
    out = np.empty(vectors.shape[0], dtype=np.intp)
    for start in range(0, vectors.shape[0], BLOCK):
        block = vectors[start:start + BLOCK]
        if prefilter:
            m = len(block)
            block32[:m] = block
            p = np.matmul(block32[:m], minus_2xt, out=partial[:m])
            p += train_sq32
            limit = p.min(axis=1) + 2 * bound[start:start + m]
            limit = np.nextafter(limit.astype(np.float32), np.float32(np.inf))
            np.less_equal(p, limit[:, None], out=close[:m])
            kept = np.flatnonzero(np.logical_or.reduce(close[:m], axis=0, out=any_close))
        out[start:start + BLOCK] = kept[np.argmin(cdist(block, train_x[kept]), axis=1)]
    return model.train_y[out]


def _within_prefilter_range(values: np.ndarray) -> bool:
    """No value is nan or larger than ``PREFILTER_MAX_ABS`` in magnitude; a nan
    makes ``min`` and ``max`` nan, and each comparison False."""
    return bool(-PREFILTER_MAX_ABS <= values.min(initial=0.0)
                and values.max(initial=0.0) <= PREFILTER_MAX_ABS)


def vote(label_indices: np.ndarray, n_labels: int, rng: np.random.Generator) -> int:
    """Majority vote; a uniform random draw decides between modal labels."""
    counts = np.bincount(label_indices, minlength=n_labels)
    modal = np.flatnonzero(counts == counts.max())
    if len(modal) == 1:
        return int(modal[0])
    return int(rng.choice(modal))


def classify_excerpt(model: TrainedModel, vectors: np.ndarray,
                     rng: np.random.Generator | None = None) -> str:
    """Label one excerpt from its window vectors."""
    if model.kind == "nn":
        if rng is None:
            rng = np.random.default_rng(model.seed)
        winners = nearest_labels(model, vectors)
        return model.labels[vote(winners, len(model.labels), rng)]
    return model.labels[int(np.argmax(log_posteriors(model, vectors)))]


def classify_excerpts(model: TrainedModel, vectors: np.ndarray, sizes,
                      rng_for) -> list[str]:
    """Label a run of excerpts whose windows are stacked in ``vectors``.

    ``sizes`` holds each excerpt's window count, in stacking order.
    ``rng_for(j)`` gives the generator for excerpt ``j``; it is called
    only when an NN vote ties. Each label equals what ``classify_excerpt``
    gives for that excerpt's windows and generator.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    n_labels = len(model.labels)
    starts = np.cumsum(sizes) - sizes
    if model.kind == "nn":
        winners = nearest_labels(model, vectors)
        owners = np.repeat(np.arange(len(sizes)), sizes)
        counts = np.bincount(owners * n_labels + winners,
                             minlength=len(sizes) * n_labels).reshape(-1, n_labels)
        picks = counts.argmax(axis=1)
        tied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1
        for j in np.flatnonzero(tied):
            picks[j] = vote(winners[starts[j]:starts[j] + sizes[j]], n_labels,
                            rng_for(int(j)))
    else:
        dists = window_distances(model, vectors)
        sums = np.empty((len(sizes), n_labels))
        # summing a (k, n, labels) stack over axis 1 adds each excerpt's
        # windows in the order np.sum(axis=0) adds them for one excerpt
        for n in np.unique(sizes):
            group = np.flatnonzero(sizes == n)
            sums[group] = dists[starts[group][:, None] + np.arange(n)].sum(axis=1)
        picks = np.argmax(-0.5 * sums, axis=1)
    return [model.labels[k] for k in picks]
