"""Partitions, experiment harness, figures of merit, significance tests.

Partition schemes, each of two folds: ``st`` (two uniform random
halves), ``st-prime`` (the same after removing the catalog's
exclusions), ``af`` (whole artist groups assigned greedily to two folds,
minimizing per-class imbalance) and ``af-prime`` (``af`` minus
exclusions). ``run_experiment`` accepts any number of folds.

Figures of merit per fold: confusion fractions (count over per-class
test size), per-class recall and precision, F-score, and normalized
accuracy (the mean per-class recall, robust to unequal test sizes).

Two systems are compared with an exact two-tailed binomial test over the
observations where exactly one of them is correct.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

# classify_excerpt is unused here, but perfbench/test_perfbench.py::
# test_tracer_rebinds_where_functions_are_looked_up_and_restores_them looks it up
# in this module; the tracer itself finds the function in classify
from .classify import classify_excerpt, classify_excerpts, train  # noqa: F401
from .corpus import Corpus, normalize_text
from .errors import (
    ArtistLeakError,
    AuditError,
    DegenerateClassError,
    EmptyClassError,
    IncompleteFeaturesError,
    ParseError,
)
from .features import apply_normalization, fit_normalization

SCHEMES = ("st", "st-prime", "af", "af-prime")

ALPHA = 0.05


@dataclass(frozen=True)
class Partition:
    scheme: str
    folds: tuple[tuple[str, ...], ...]
    seed: int
    realization: int = 0


@dataclass(frozen=True)
class ConfusionTable:
    labels: tuple[str, ...]
    counts: np.ndarray  # [predicted, true]


@dataclass(frozen=True)
class FiguresOfMerit:
    labels: tuple[str, ...]
    confusion: np.ndarray  # counts normalized per true-label column
    recall: dict[str, float]
    precision: dict[str, float | None]
    fscore: dict[str, float | None]
    accuracy: float


@dataclass(frozen=True)
class PredictionRecord:
    excerpt_id: str
    true_label: str
    predicted_label: str
    fold: int


@dataclass(frozen=True)
class ExperimentResult:
    tables: tuple[ConfusionTable, ...]
    predictions: tuple[PredictionRecord, ...]


@dataclass(frozen=True)
class SignificanceResult:
    n: int
    t12: int
    p: float
    reject: bool


def _artist_groups(corpus: Corpus, included: set[str]) -> dict[str, list[str]]:
    """Whole-artist atoms by ``artist_key``; an excerpt without one is a singleton."""
    groups: dict[str, list[str]] = {}
    for ex in corpus.excerpts:
        if ex.id not in included:
            continue
        groups.setdefault(ex.artist_key or f"\x00singleton:{ex.id}", []).append(ex.id)
    return groups


def _greedy_assign(groups: dict[str, list[str]], corpus: Corpus,
                   preassigned: dict[str, int] | None = None) -> tuple[list[str], list[str]]:
    """Assign whole groups to two folds, minimizing per-class imbalance.

    Groups are processed largest first (ties by group key); each goes to
    the fold that minimizes the summed per-class absolute imbalance, with
    remaining ties going to the smaller fold, then fold 1.
    """
    label_index = {label: i for i, label in enumerate(corpus.labels)}
    per_class = np.zeros((2, len(corpus.labels)), dtype=int)
    folds: tuple[list[str], list[str]] = ([], [])

    def place(key: str, fold: int):
        for eid in groups[key]:
            folds[fold].append(eid)
            per_class[fold, label_index[corpus.get(eid).label]] += 1

    preassigned = preassigned or {}
    for key, fold in sorted(preassigned.items()):
        place(key, fold)

    order = sorted((k for k in groups if k not in preassigned),
                   key=lambda k: (-len(groups[k]), k))
    for key in order:
        counts = np.zeros(len(corpus.labels), dtype=int)
        for eid in groups[key]:
            counts[label_index[corpus.get(eid).label]] += 1
        cost0 = np.abs(per_class[0] + counts - per_class[1]).sum()
        cost1 = np.abs(per_class[0] - counts - per_class[1]).sum()
        if cost0 < cost1:
            fold = 0
        elif cost1 < cost0:
            fold = 1
        else:
            fold = 0 if len(folds[0]) <= len(folds[1]) else 1
        place(key, fold)
    return folds


def read_artist_folds(artist_folds) -> dict[str, int]:
    """Normalize a manual {artist: fold} assignment; folds are 1-based lists."""
    if not (isinstance(artist_folds, dict) and set(artist_folds) <= {"fold1", "fold2"}
            and all(isinstance(names, list) and all(isinstance(n, str) for n in names)
                    for names in artist_folds.values())):
        raise ParseError("artist fold file must map 'fold1' and 'fold2' to artist lists")
    assignment = {}
    for fold, index in (("fold1", 0), ("fold2", 1)):
        for name in artist_folds.get(fold, []):
            key = normalize_text(name)
            if key in assignment and assignment[key] != index:
                raise ArtistLeakError(f"artist {name!r} assigned to both folds")
            assignment[key] = index
    return assignment


def make_partition(corpus: Corpus, scheme: str, seed: int = 0, catalog=None,
                   artist_folds=None, realization: int = 0) -> Partition:
    """Build a partition of the corpus under the requested scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    included = {ex.id for ex in corpus.excerpts}
    if scheme in ("st-prime", "af-prime"):
        if catalog is None:
            raise AuditError(f"scheme {scheme!r} needs a fault catalog")
        included -= catalog.exclusions()

    if scheme in ("st", "st-prime"):
        ids = sorted(included)
        np.random.default_rng([seed, realization]).shuffle(ids)
        cut = (len(ids) + 1) // 2
        folds = (tuple(ids[:cut]), tuple(ids[cut:]))
    else:  # af, af-prime
        groups = _artist_groups(corpus, included)
        preassigned = None
        if artist_folds is not None:
            assignment = read_artist_folds(artist_folds)
            # names absent from the corpus are ignored
            preassigned = {k: v for k, v in assignment.items() if k in groups}
        fold_lists = _greedy_assign(groups, corpus, preassigned)
        folds = (tuple(sorted(fold_lists[0])), tuple(sorted(fold_lists[1])))
        leak = set(folds[0]) & set(folds[1])
        if leak:
            raise ArtistLeakError(f"excerpts in both folds: {sorted(leak)}")

    return Partition(scheme=scheme, folds=folds, seed=seed, realization=realization)


def run_experiment(corpus: Corpus, partition: Partition, kind: str,
                   features: dict[str, np.ndarray], seed: int = 0) -> ExperimentResult:
    """Cross-validate one classifier over the partition's folds.

    Each fold serves as the test set once, with the model trained on the
    union of the others; normalization is fitted on the training windows
    and applied unchanged to the test windows. Original labels are kept.
    A fold's test excerpts are scored together, in sorted id order; the
    ``j``-th one draws NN vote ties from ``default_rng([seed, realization,
    fold, j])``, so each label equals ``classify_excerpt`` on its own.

    Memory: a fold's training windows, then its test windows, are each
    gathered into one new float64 matrix and normalized in place, and
    neither outlives its use.
    """
    all_ids = [eid for fold in partition.folds for eid in fold]
    missing = [eid for eid in all_ids if eid not in features]
    if missing:
        raise IncompleteFeaturesError(f"no features for: {missing[:5]}")

    predictions = []
    for i, test_fold in enumerate(partition.folds):
        train_ids = [eid for j, fold in enumerate(partition.folds)
                     if j != i for eid in fold]
        if not train_ids:
            raise EmptyClassError(f"fold {i} leaves no excerpts to train on")
        train_x = np.concatenate([features[eid] for eid in train_ids], dtype=float)
        train_y = [corpus.get(eid).label
                   for eid in train_ids for _ in range(len(features[eid]))]
        nmap = fit_normalization(train_x)
        model = train(kind, apply_normalization(nmap, train_x, out=train_x), train_y,
                      label_order=corpus.labels, seed=seed)
        del train_x  # an NN model keeps it; an MD or MMD model does not need it
        test_ids = sorted(test_fold)
        if not test_ids:
            continue
        test_x = np.concatenate([features[eid] for eid in test_ids], dtype=float)
        predicted = classify_excerpts(
            model, apply_normalization(nmap, test_x, out=test_x),
            [len(features[eid]) for eid in test_ids],
            lambda j: np.random.default_rng([seed, partition.realization, i, j]))
        del test_x  # not kept while the next fold trains
        predictions += [PredictionRecord(excerpt_id=eid, true_label=corpus.get(eid).label,
                                         predicted_label=label, fold=i)
                        for eid, label in zip(test_ids, predicted)]
    return ExperimentResult(tables=confusion_tables(corpus.labels, predictions),
                            predictions=tuple(predictions))


def run_realizations(corpus: Corpus, scheme: str, kind: str, features, seed: int = 0,
                     realizations: int = 1, catalog=None, artist_folds=None) -> list:
    """``run_experiment`` on realizations 0 .. ``realizations`` - 1 of ``scheme``; ``af``
    and ``af-prime`` ignore the seed and realization, so they take one."""
    if realizations > 1 and scheme in ("af", "af-prime"):
        raise AuditError(f"scheme {scheme!r} makes the same partition for every "
                         f"realization, so it takes 1 realization, not {realizations}")
    return [run_experiment(corpus, make_partition(corpus, scheme, seed=seed, catalog=catalog,
                                                  artist_folds=artist_folds, realization=r),
                           kind, features, seed=seed)
            for r in range(realizations)]


def confusion_tables(labels, predictions) -> tuple[ConfusionTable, ...]:
    """One confusion table per fold that has predictions, in fold order."""
    index = {label: i for i, label in enumerate(labels)}
    counts: dict[int, np.ndarray] = {}
    for p in predictions:
        fold = counts.setdefault(p.fold, np.zeros((len(labels), len(labels))))
        fold[index[p.predicted_label], index[p.true_label]] += 1
    return tuple(ConfusionTable(labels=tuple(labels), counts=counts[f]) for f in sorted(counts))


def figures_of_merit(table: ConfusionTable) -> FiguresOfMerit:
    """Confusion fractions, recall, precision, F-score, normalized accuracy.

    Precision is undefined (None) for labels never predicted, and such
    labels carry no F-score either. A table with no labels, or a label
    with no test observations, is a ``DegenerateClassError``.
    """
    if not table.labels:
        raise DegenerateClassError("no labels to score")
    counts = np.asarray(table.counts, dtype=float)
    col_sums = counts.sum(axis=0)
    if np.any(col_sums == 0):
        zero = [table.labels[i] for i in np.flatnonzero(col_sums == 0)]
        raise DegenerateClassError(f"no test observations for: {zero}")
    confusion = counts / col_sums
    recall = {label: float(confusion[i, i]) for i, label in enumerate(table.labels)}
    row_sums = counts.sum(axis=1)
    precision: dict[str, float | None] = {}
    fscore: dict[str, float | None] = {}
    for i, label in enumerate(table.labels):
        if row_sums[i] == 0:
            precision[label] = None
            fscore[label] = None
            continue
        p = float(counts[i, i] / row_sums[i])
        precision[label] = p
        r = recall[label]
        fscore[label] = 2 * p * r / (p + r) if p + r > 0 else None
    accuracy = float(np.mean(np.diag(confusion)))
    return FiguresOfMerit(labels=table.labels, confusion=confusion, recall=recall,
                          precision=precision, fscore=fscore, accuracy=accuracy)


def accuracy_summary(results) -> tuple[float, float]:
    """Mean and one standard deviation of per-fold normalized accuracies."""
    accs = [figures_of_merit(t).accuracy for res in results for t in res.tables]
    if not accs:
        raise DegenerateClassError("no fold holds a prediction to summarize")
    return float(np.mean(accs)), float(np.std(accs, ddof=1)) if len(accs) > 1 else 0.0


def binomial_significance(n: int, t12: int) -> SignificanceResult:
    """Exact two-tailed binomial test under a fair-coin null.

    Sums both tails at and beyond min/max(t12, n - t12); a perfectly
    balanced split double-counts the central term, so p is clamped to 1.
    """
    if not 0 <= t12 <= n:
        raise ValueError("t12 must lie in [0, n]")
    if n == 0:
        return SignificanceResult(n=0, t12=0, p=1.0, reject=False)
    lo = min(t12, n - t12)
    hi = max(t12, n - t12)
    half = 0.5 ** n
    p = sum(comb(n, t) for t in range(0, lo + 1)) * half
    p += sum(comb(n, t) for t in range(hi, n + 1)) * half
    p = min(p, 1.0)
    return SignificanceResult(n=n, t12=t12, p=p, reject=p < ALPHA)


def significance_test(predictions_1, predictions_2) -> SignificanceResult:
    """Compare two systems' predictions over the same observations.

    Inputs are iterables of PredictionRecord. Only observations where
    exactly one system is correct count.
    """
    m1, m2 = ({p.excerpt_id: (p.true_label, p.predicted_label) for p in preds}
              for preds in (predictions_1, predictions_2))
    if set(m1) != set(m2):
        raise AuditError("the two systems classified different observation sets")
    n = t12 = 0
    for eid, (true, pred1) in m1.items():
        pred2 = m2[eid][1]
        ok1, ok2 = pred1 == true, pred2 == true
        if ok1 != ok2:
            n += 1
            if ok1:
                t12 += 1
    return binomial_significance(n, t12)
