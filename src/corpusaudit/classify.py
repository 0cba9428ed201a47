"""Nearest-neighbor, minimum-distance and Mahalanobis classifiers.

All three operate on normalized texture vectors and label a whole
excerpt from its windows: NN takes a majority vote over per-window
nearest neighbors, breaking ties uniformly at random with a seeded
generator; MD and MMD sum equal-prior Gaussian log posteriors over the
windows and take the argmax, breaking ties by label order. MD uses an
identity covariance (negative squared Euclidean distance); MMD uses the
total covariance of the training set, regularized by lambda*I with
lambda = 1e-6 * trace / dim; a zero covariance, every training feature
constant, has no such regularization and is refused.

MMD is MD on whitened vectors. With P = inv(cov + lambda*I) = L L^T, L
its lower Cholesky factor, the Mahalanobis distance (x - mu)^T P (x - mu)
equals ||x L - mu L||^2, so the class means are multiplied by L once per
model, each window once, and then scored as MD scores them. The covariance
and those products are fixed-order ``einsum`` sums, not BLAS products, whose
last digits can vary with the BLAS thread count and with the number of rows
in one call.

The one BLAS product left is NN's single-precision prefilter. It only
narrows each window's candidate training rows, with a bound that keeps
every nearest neighbor whatever the product's rounding; a window left
with two or more candidates gets their exact distances, rounded as
``scipy.spatial.distance.cdist`` rounds them. So NN labels do not depend
on the product either. The prefilter is decided per block of windows: a
block with a value it cannot bound is scored exactly against every row.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyClassError, IncompleteFeaturesError

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
    train_x: np.ndarray | None = None       # NN
    train_y: np.ndarray | None = None       # NN, label indices
    means: np.ndarray | None = None         # MD/MMD, (n_labels, dim)
    whiten: np.ndarray | None = None        # MMD, lower L with L L^T = precision
    # MD/MMD: the means as windows are scored against them, whitened once for MMD
    scored_means: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        means = self.means
        if self.kind == "mmd":
            means = np.einsum("nd,de->ne", means, self.whiten)
        object.__setattr__(self, "scored_means", means)


def train(kind: str, vectors: np.ndarray, y, labels) -> TrainedModel:
    """Fit a model on training vectors; ``y`` holds each vector's label as an
    index into ``labels``.

    An NN model keeps ``np.asarray(vectors, dtype=float)`` itself, not a
    copy: a float array passed in is shared, and changing it changes the model.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}")
    vectors = np.asarray(vectors, dtype=float)
    y = np.asarray(y, dtype=np.intp)
    labels = tuple(labels)
    if y.shape != vectors.shape[:1] or not np.all((0 <= y) & (y < len(labels))):
        raise ValueError("y must hold one index into labels per training vector")

    if kind == "nn":
        return TrainedModel(kind=kind, labels=labels, train_x=vectors, train_y=y)

    counts = np.bincount(y, minlength=len(labels))
    if not counts.all():
        raise EmptyClassError(f"no training vectors for label {labels[np.argmin(counts)]!r}")
    means = np.array([vectors[y == i].mean(axis=0) for i in range(len(labels))])
    if kind == "md":
        return TrainedModel(kind=kind, labels=labels, means=means)

    centered = vectors - vectors.mean(axis=0)
    denom = max(vectors.shape[0] - 1, 1)
    cov = np.einsum("ni,nj->ij", centered, centered) / denom
    lam = COV_REG_SCALE * np.trace(cov) / cov.shape[0]
    if not lam > 0:  # cov + lam * I is positive definite only when lam is
        raise IncompleteFeaturesError("every training feature is constant, so MMD has "
                                      "no covariance to invert")
    cov_reg = cov + lam * np.eye(cov.shape[0])
    return TrainedModel(kind=kind, labels=labels, means=means,
                        whiten=np.linalg.cholesky(np.linalg.inv(cov_reg)))


def window_distances(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """Squared distance of each window to each class mean (MD/MMD only).

    Shape (n_windows, n_labels): Euclidean for MD, Mahalanobis under the
    regularized total covariance for MMD, which is the Euclidean distance
    between the window and the mean after both are multiplied by
    ``model.whiten``. That product is a two-operand ``einsum``, whose sum
    for a row does not depend on the other rows in the call; the means are
    multiplied once, when the model is built. All given windows are scored
    in one broadcast, so a call holds a (windows x labels x dim) temporary:
    ``classify_excerpts`` passes at most ``BLOCK`` windows at a time. Each
    value depends on its own window only, so how windows are grouped into
    calls changes no bit of the result.
    """
    if model.kind not in ("md", "mmd"):
        raise ValueError("window distances are defined for MD/MMD only")
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    if model.kind == "mmd":
        vectors = np.einsum("nd,de->ne", vectors, model.whiten)
    diffs = vectors[:, None, :] - model.scored_means
    return np.sum(np.multiply(diffs, diffs, out=diffs), axis=2)


def log_posteriors(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """Per-class log posterior sums over the given windows (MD/MMD only)."""
    return -0.5 * np.sum(window_distances(model, vectors), axis=0)


def nearest_labels(model: TrainedModel, vectors: np.ndarray) -> np.ndarray:
    """Per-window nearest-training-neighbor label indices (NN only).

    The neighbor is ``argmin(cdist(vectors, train_x), axis=1)``, bit for
    bit: the smallest Euclidean distance as ``scipy.spatial.distance.cdist``
    rounds it, ties to the earliest training index and a nan to the first
    nan. ``_euclidean`` rounds as ``cdist`` does: each difference and
    square in float64, the squares added in dimension order, then the
    square root. Windows go ``BLOCK`` at a time through a single-precision
    BLAS prefilter, which leaves each window its own candidate rows. A
    window with one candidate takes it; only windows with two or more get
    exact distances, and only to their candidates.

    Prefilter. The windows and training rows are rounded to float32. For
    window a and training row x, one sgemm gives p = ||x||^2 - 2 a.x, which
    is ||a - x||^2 minus ||a||^2, a constant per window: each window gets a
    (d + 1)-th coordinate 1, and ``-2 train_x^T`` a (d + 1)-th row, each
    ||x||^2 summed in float64 and rounded to float32. A window's candidates
    are the rows whose p lies within 2B of its smallest p, with B = 4(d + 5)
    eps (||a||^2 + max ||x||^2) + 4(d + 5) t, where eps = 2u = 2**-23 is
    float32's epsilon, t = 2**-126 its smallest normal number and d the
    dimension; the norms and B are computed in float64. The limit, smallest
    p plus 2B, is rounded to float32 and then moved up one float32 step, so
    it is never below its float64 value. The block's kept rows are the union
    of its windows' candidates; each window's own candidates are read from
    its row of the ``<=`` mask at the kept columns, in index order.

    Why every cdist minimizer is a candidate of its window. Let s = ||a||^2
    + ||x||^2, D = ||a - x||^2 and q = D - ||a||^2 in exact arithmetic.
    - Rounding a value v to float32 changes it by at most u|v| + t: u in
      the normal range, below t when it lands among the subnormals or
      is flushed to zero, and reading such an input as zero (DAZ) stays
      within t as well. A term t|v| is at most u v^2 + u t. So using the
      rounded a and x moves 2 a.x by at most 4u s + 4d u t < 4u s + t.
    - ||x||^2, summed in float64 and rounded to float32, is within
      1.01u ||x||^2 + t <= 1.01u s + t.
    - A float32 sum of d + 1 products, in any order, blocked or threaded,
      with or without FMA, is within gamma_{d+1} = (d + 1)u/(1 - (d + 1)u)
      of the sum of their absolute values: the d products of -2 a.x, whose
      absolute values add to s or less (2|a.x| <= s), and 1 times the
      rounded ||x||^2, also s or less, so 2s up to the rounding above.
      Each product and each addition that underflows adds at most t more,
      with or without flush-to-zero: 2(d + 1) t in all.
    So the computed p is within 2 gamma_{d+1} s + 5.01u s + (2d + 4) t <=
    gamma_{2d+8} s + (2d + 4) t of q. cdist
    rounds each difference, square and partial sum in float64 and then
    takes the square root, so its value c has |c^2 - D| <= gamma'_{d+5} D
    <= 2 gamma'_{d+5} s, with gamma' float64's gamma; its underflow is
    far below t. If row j minimizes c, then c_j^2 <= c_k^2 for every row
    k, and chaining these bounds gives p_j <= p_k + (gamma_{2d+8} +
    2 gamma'_{d+5}) (s_j + s_k) + (4d + 8) t, which is at most
    8(d + 5) u (||a||^2 + max ||x||^2) + (4d + 8) t while (2d + 8) u <= 1/2.
    2B is twice that or more. The rest absorbs the float64 rounding of
    the norms, of B and of the limit, and a flush to zero of the limit
    or of a p, which moves it by less than t. Taking k as the row with
    the smallest p, row j is a candidate of its window. So a window's
    candidates hold all its minimizers, in index order, and the first
    candidate at the smallest exact distance is the earliest minimizer;
    a window with a single candidate needs no distance at all.

    The bounds need finite values whose float32 squares and d-term sums
    cannot overflow, and (2d + 8) u <= 1/2. The training matrix is checked
    once, and each block of windows on its own. A value that is not finite
    or exceeds ``PREFILTER_MAX_ABS`` in magnitude turns the prefilter off
    for every block if the training matrix holds it, and for its own block
    if a window does; so does d above ``PREFILTER_MAX_DIM``, for every
    block. A block without the prefilter scores each of its windows
    against every row, one window at a time. Labels therefore depend
    neither on the BLAS thread count nor on how windows are blocked; only
    the kept sets may.

    Memory: besides ``-2 train_x^T`` and its row of norms in float32, the
    prefilter allocates one workspace per call, reused by every block: the
    block's windows and their 1s in float32, its p block and that block's
    ``<=`` mask. The range checks take each row's ``min`` and ``max`` and
    copy no matrix. A block without the prefilter holds one window's
    differences to every row at a time.
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    train_x = model.train_x
    n_train, dim = train_x.shape
    prefilter = dim <= PREFILTER_MAX_DIM and _rows_in_prefilter_range(train_x).all()
    if prefilter:
        in_range = _rows_in_prefilter_range(vectors)
        eps, tiny = float(np.finfo(np.float32).eps), float(np.finfo(np.float32).tiny)
        train_sq = np.einsum("ij,ij->i", train_x, train_x)
        # inf or nan for a window out of range, whose block does not use it
        bound = 4 * (dim + 5) * (eps * (np.einsum("ij,ij->i", vectors, vectors)
                                        + train_sq.max(initial=0.0)) + tiny)
        # -2 x^T, then a row of ||x||^2 that each window's constant 1 picks up
        minus_2xt = np.empty((dim + 1, n_train), dtype=np.float32)
        np.multiply(train_x.T, -2.0, out=minus_2xt[:dim], dtype=np.float32)
        minus_2xt[dim] = train_sq
        rows = min(BLOCK, vectors.shape[0])
        block32 = np.empty((rows, dim + 1), dtype=np.float32)
        block32[:, dim] = 1.0
        partial = np.empty((rows, n_train), dtype=np.float32)
        close = np.empty((rows, n_train), dtype=bool)
        any_close = np.empty(n_train, dtype=bool)
    out = np.empty(vectors.shape[0], dtype=np.intp)
    for start in range(0, vectors.shape[0], BLOCK):
        block = vectors[start:start + BLOCK]
        if not (prefilter and in_range[start:start + BLOCK].all()):
            # nan and infinity are scored as cdist scores them, without warnings
            with np.errstate(invalid="ignore", over="ignore"):
                for i, window in enumerate(block):
                    out[start + i] = np.argmin(_euclidean(window - train_x))
            continue
        m = len(block)
        block32[:m, :dim] = block
        p = np.matmul(block32[:m], minus_2xt, out=partial[:m])
        limit = _candidate_limit(p.min(axis=1), bound[start:start + m])
        np.less_equal(p, limit[:, None], out=close[:m])
        kept = np.flatnonzero(np.logical_or.reduce(close[:m], axis=0, out=any_close))
        own = close[:m, kept]  # each window's candidates, in row order
        out[start:start + m] = kept[own.argmax(axis=1)]  # its first
        choice = np.flatnonzero(own.sum(axis=1) > 1)
        if len(choice):
            own = own[choice]
            owner, col = np.nonzero(own)
            dists = np.full(own.shape, np.inf)  # a candidate's distance is finite
            dists[own] = _euclidean(block[choice[owner]] - train_x[kept[col]])
            out[start + choice] = kept[dists.argmin(axis=1)]
    return model.train_y[out]


def _candidate_limit(p_min: np.ndarray, bound: np.ndarray) -> np.ndarray:
    """Each window's prefilter limit, ``p_min + 2 bound`` in float64, rounded
    to float32 and moved up one float32 step, so never below its float64
    value."""
    limit = p_min + 2 * bound
    return np.nextafter(limit.astype(np.float32), np.float32(np.inf))


def _euclidean(diffs: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of ``diffs``, rounded as ``cdist`` rounds
    them: the squares added in dimension order, then the square root.
    ``np.sum`` adds pairwise and can differ in the last bit. Overwrites
    ``diffs``."""
    squares = np.multiply(diffs, diffs, out=diffs)
    return np.sqrt(np.add.accumulate(squares, axis=-1, out=squares)[..., -1])


def _rows_in_prefilter_range(values: np.ndarray) -> np.ndarray:
    """Per row: no value is nan or larger than ``PREFILTER_MAX_ABS`` in magnitude;
    a nan makes its row's ``min`` and ``max`` nan, and each comparison False."""
    return ((-PREFILTER_MAX_ABS <= values.min(axis=1, initial=0.0))
            & (values.max(axis=1, initial=0.0) <= PREFILTER_MAX_ABS))


def vote(label_indices: np.ndarray, n_labels: int, rng: np.random.Generator) -> int:
    """Majority vote; a uniform random draw decides between modal labels."""
    counts = np.bincount(label_indices, minlength=n_labels)
    modal = np.flatnonzero(counts == counts.max())
    if len(modal) == 1:
        return int(modal[0])
    return int(rng.choice(modal))


def classify_excerpt(model: TrainedModel, vectors: np.ndarray,
                     rng: np.random.Generator | None = None) -> str:
    """Label one excerpt from its window vectors; ``rng`` breaks an NN vote's
    ties, and MD and MMD do not read it."""
    if model.kind == "nn":
        if rng is None:
            raise ValueError("an NN excerpt needs a generator for its vote's ties")
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

    MD and MMD add each ``BLOCK`` of window distances into the excerpt sums
    with ``np.add.at``: from +0.0, one window at a time in window order, as
    ``np.sum(axis=0)`` adds one excerpt's distances (all at least +0.0).
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    n_labels = len(model.labels)
    owners = np.repeat(np.arange(len(sizes)), sizes)
    if model.kind == "nn":
        winners = nearest_labels(model, vectors)
        counts = np.bincount(owners * n_labels + winners,
                             minlength=len(sizes) * n_labels).reshape(-1, n_labels)
        picks = counts.argmax(axis=1)
        tied = (counts == counts.max(axis=1, keepdims=True)).sum(axis=1) > 1
        starts = np.cumsum(sizes) - sizes
        for j in np.flatnonzero(tied):
            picks[j] = vote(winners[starts[j]:starts[j] + sizes[j]], n_labels,
                            rng_for(int(j)))
    else:
        sums = np.zeros((len(sizes), n_labels))
        for start in range(0, len(owners), BLOCK):
            np.add.at(sums, owners[start:start + BLOCK],
                      window_distances(model, vectors[start:start + BLOCK]))
        picks = np.argmax(-0.5 * sums, axis=1)
    return [model.labels[k] for k in picks]
