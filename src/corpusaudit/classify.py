"""Nearest-neighbor, minimum-distance and Mahalanobis classifiers.

All three operate on normalized texture vectors and label a whole
excerpt from its windows: NN takes a majority vote over per-window
nearest neighbors, breaking ties uniformly at random with a seeded
generator; MD and MMD sum equal-prior Gaussian log posteriors over the
windows and take the argmax, breaking ties by label order. MD uses an
identity covariance (negative squared Euclidean distance); MMD uses the
total covariance of the training set, regularized by lambda*I with
lambda = 1e-6 * trace / dim.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import EmptyClassError

KINDS = ("nn", "md", "mmd")

COV_REG_SCALE = 1e-6

# windows scored at once: a distance block against ~4500 training rows is ~1 MB
BLOCK = 32

# beyond this magnitude squared norms might overflow; the NN prefilter keeps every row
PREFILTER_MAX_ABS = 1e100


@dataclass(frozen=True)
class TrainedModel:
    kind: str
    labels: tuple[str, ...]
    seed: int = 0
    train_x: np.ndarray | None = None       # NN
    train_y: np.ndarray | None = None       # NN, label indices
    means: np.ndarray | None = None         # MD/MMD, (n_labels, dim)
    cov_inv: np.ndarray | None = None       # MMD


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
    cov = centered.T @ centered / denom
    lam = COV_REG_SCALE * np.trace(cov) / cov.shape[0]
    cov_reg = cov + lam * np.eye(cov.shape[0])
    return TrainedModel(kind=kind, labels=label_order, seed=seed, means=means,
                        cov_inv=np.linalg.inv(cov_reg))


def window_distances(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """Squared distance of each window to each class mean (MD/MMD only).

    Shape (n_windows, n_labels): Euclidean for MD, Mahalanobis under the
    regularized total covariance for MMD. Windows are scored ``BLOCK`` at
    a time; each value depends on its own window only, so the blocking
    does not change a bit of the result.
    """
    if model.kind not in ("md", "mmd"):
        raise ValueError("window distances are defined for MD/MMD only")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    out = np.empty((vectors.shape[0], len(model.labels)))
    for start in range(0, vectors.shape[0], BLOCK):
        diffs = vectors[start:start + BLOCK, None, :] - model.means[None, :, :]
        if model.kind == "md":
            out[start:start + BLOCK] = np.sum(diffs * diffs, axis=2)
        else:
            out[start:start + BLOCK] = np.einsum("vld,de,vle->vl", diffs,
                                                 model.cov_inv, diffs)
    return out


def log_posteriors(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """Per-class log posterior sums over the given windows (MD/MMD only)."""
    return -0.5 * np.sum(window_distances(model, vectors), axis=0)


def nearest_labels(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """Per-window nearest-training-neighbor label indices (NN only).

    The neighbor is ``argmin(cdist(vectors, train_x), axis=1)``, bit for
    bit: the smallest Euclidean distance as ``cdist`` rounds it, ties to
    the earliest training index. Windows go ``BLOCK`` at a time through
    a BLAS prefilter, and only the training rows it keeps are scored
    with ``cdist``.

    Prefilter. For window a and training row x, BLAS gives
    p = ||x||^2 - 2 a.x, which is ||a - x||^2 minus ||a||^2, a constant
    per window. Every row whose p lies within 2B of the window's
    smallest p is kept, with B = 4(d + 5) eps (||a||^2 + max ||x||^2)
    plus 8(d + 5) times the smallest subnormal; eps = 2u = 2**-52 and d
    is the dimension. The kept rows of a block are scored against the
    whole block, in index order, and each window takes the argmin of
    its row.

    Why every cdist minimizer is kept. Let s = ||a||^2 + ||x||^2 and
    D = ||a - x||^2 in exact arithmetic. A sum of d products, formed in
    any order with or without FMA, is within gamma_d = du/(1 - du) of
    the sum of their absolute values, and |a.x| <= s/2; so the computed
    p is within (2 gamma_d + 2u) s of D - ||a||^2. cdist rounds each
    difference, square and partial sum and then the square root, so its
    value c has |c^2 - D| <= gamma_{d+5} D <= 2 gamma_{d+5} s. If row j
    minimizes c, then c_j^2 <= c_k^2 for every row k, and chaining the
    four bounds gives p_j <= p_k + 4 gamma_{d+5} (s_j + s_k)
    <= p_k + 8 gamma_{d+5} (||a||^2 + max ||x||^2), about half of 2B.
    The other half absorbs the rounding of the norms, of B itself and
    of the threshold sum. Underflow adds at most half the smallest
    subnormal per operation, which the subnormal term covers. So row j
    is kept, and since every kept set holds all minimizers of its
    window in index order, the argmin over it is the earliest minimizer.
    The bounds need finite values whose squares cannot overflow: if any
    value is not finite or exceeds ``PREFILTER_MAX_ABS`` in magnitude,
    every row is kept and the kernel is plain blocked cdist.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    train_x = model.train_x
    dim = train_x.shape[1]
    train_sq = np.einsum("ij,ij->i", train_x, train_x)
    scale = 4 * (dim + 5) * np.finfo(float).eps
    floor = 8 * (dim + 5) * np.finfo(float).smallest_subnormal
    # Each comparison is False when its array holds a nan.
    prefilter = (np.abs(train_x).max(initial=0.0) <= PREFILTER_MAX_ABS
                 and np.abs(vectors).max(initial=0.0) <= PREFILTER_MAX_ABS)
    reach = train_sq.max()
    minus_2xt = -2.0 * train_x.T
    kept = np.arange(train_x.shape[0])  # every row, unless the prefilter narrows it
    out = np.empty(vectors.shape[0], dtype=np.intp)
    for start in range(0, vectors.shape[0], BLOCK):
        block = vectors[start:start + BLOCK]
        if prefilter:
            partial = block @ minus_2xt
            partial += train_sq
            bound = scale * (np.einsum("ij,ij->i", block, block) + reach) + floor
            limit = partial.min(axis=1) + 2 * bound
            kept = np.flatnonzero((partial <= limit[:, None]).any(axis=0))
        out[start:start + BLOCK] = kept[np.argmin(cdist(block, train_x[kept]), axis=1)]
    return model.train_y[out]


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
