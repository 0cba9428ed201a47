"""Partitions, experiment harness, figures of merit, significance tests.

Partition schemes: ``st`` (two uniform random halves), ``st-prime`` (the
same after removing the catalog's exclusions), ``af`` (whole artist
groups assigned greedily to two folds, minimizing per-class imbalance),
``af-prime`` (``af`` minus exclusions), plus a generic stratified
``kfold`` and a fractional ``split`` mode for harness completeness.

Figures of merit per fold: confusion fractions (count over per-class
test size), per-class recall and precision, F-score, and normalized
accuracy (the mean per-class recall, robust to unequal test sizes).

Two systems are compared with an exact two-tailed binomial test over the
observations where exactly one of them is correct.
"""

from dataclasses import dataclass
from math import comb

import numpy as np

from .classify import classify_excerpt, train
from .corpus import Corpus, normalize_text
from .errors import (
    ArtistLeakError,
    AuditError,
    DegenerateClassError,
    IncompleteFeaturesError,
    ParseError,
)
from .features import apply_normalization, fit_normalization

SCHEMES = ("st", "st-prime", "af", "af-prime", "kfold", "split")

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

    def test_sizes(self) -> np.ndarray:
        return self.counts.sum(axis=0)


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
    """Whole-artist atoms; unidentified excerpts become singleton groups."""
    groups: dict[str, list[str]] = {}
    for ex in corpus.excerpts:
        if ex.id not in included:
            continue
        if ex.identified and ex.artist:
            groups.setdefault(normalize_text(ex.artist), []).append(ex.id)
        else:
            groups.setdefault(f"\x00singleton:{ex.id}", []).append(ex.id)
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


def _read_artist_folds(artist_folds) -> dict[str, int]:
    """Normalize a manual {artist: fold} assignment; folds are 1-based lists."""
    if isinstance(artist_folds, dict) and set(artist_folds) <= {"fold1", "fold2"}:
        assignment = {}
        for fold, names in (("fold1", 0), ("fold2", 1)):
            for name in artist_folds.get(fold, []):
                key = normalize_text(name)
                if key in assignment and assignment[key] != names:
                    raise ArtistLeakError(f"artist {name!r} assigned to both folds")
                assignment[key] = names
        return assignment
    raise ParseError("artist fold file must map 'fold1' and 'fold2' to artist lists")


def make_partition(corpus: Corpus, scheme: str, seed: int = 0, catalog=None,
                   artist_folds=None, realization: int = 0, k: int = 2,
                   train_fraction: float = 0.5) -> Partition:
    """Build a partition of the corpus under the requested scheme."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    included = {ex.id for ex in corpus.excerpts}
    if scheme in ("st-prime", "af-prime"):
        if catalog is None:
            raise AuditError(f"scheme {scheme!r} needs a fault catalog")
        included -= catalog.exclusions()
    rng = np.random.default_rng([seed, realization])

    if scheme in ("st", "st-prime", "split"):
        ids = sorted(included)
        rng.shuffle(ids)
        if scheme == "split":
            cut = int(round(train_fraction * len(ids)))
        else:
            cut = (len(ids) + 1) // 2
        folds = (tuple(ids[:cut]), tuple(ids[cut:]))
    elif scheme in ("af", "af-prime"):
        groups = _artist_groups(corpus, included)
        preassigned = None
        if artist_folds is not None:
            assignment = _read_artist_folds(artist_folds)
            # names absent from the corpus are ignored
            preassigned = {k: v for k, v in assignment.items() if k in groups}
        fold_lists = _greedy_assign(groups, corpus, preassigned)
        folds = (tuple(sorted(fold_lists[0])), tuple(sorted(fold_lists[1])))
        leak = set(folds[0]) & set(folds[1])
        if leak:
            raise ArtistLeakError(f"excerpts in both folds: {sorted(leak)}")
    else:  # kfold: generic stratified k-fold
        fold_lists = [[] for _ in range(k)]
        for label in corpus.labels:
            ids = sorted(ex.id for ex in corpus.with_label(label) if ex.id in included)
            rng.shuffle(ids)
            for i, eid in enumerate(ids):
                fold_lists[i % k].append(eid)
        folds = tuple(tuple(sorted(f)) for f in fold_lists)

    return Partition(scheme=scheme, folds=folds, seed=seed, realization=realization)


def run_experiment(corpus: Corpus, partition: Partition, kind: str,
                   features: dict[str, np.ndarray], seed: int = 0) -> ExperimentResult:
    """Cross-validate one classifier over the partition's folds.

    Each fold serves as the test set once, with the model trained on the
    union of the others; normalization is fitted on the training windows
    and applied unchanged to the test windows. Original labels are kept.
    """
    all_ids = [eid for fold in partition.folds for eid in fold]
    missing = [eid for eid in all_ids if eid not in features]
    if missing:
        raise IncompleteFeaturesError(f"no features for: {missing[:5]}")

    predictions = []
    for i, test_fold in enumerate(partition.folds):
        train_ids = [eid for j, fold in enumerate(partition.folds)
                     if j != i for eid in fold]
        train_x = np.concatenate([features[eid] for eid in train_ids])
        train_y = [corpus.get(eid).label
                   for eid in train_ids for _ in range(len(features[eid]))]
        nmap = fit_normalization(train_x)
        model = train(kind, apply_normalization(nmap, train_x), train_y,
                      label_order=corpus.labels, seed=seed)
        for j, eid in enumerate(sorted(test_fold)):
            vecs = apply_normalization(nmap, features[eid])
            rng = np.random.default_rng([seed, partition.realization, i, j])
            predicted = classify_excerpt(model, vecs, rng=rng)
            predictions.append(PredictionRecord(
                excerpt_id=eid, true_label=corpus.get(eid).label,
                predicted_label=predicted, fold=i))
    return ExperimentResult(tables=confusion_tables(corpus.labels, predictions),
                            predictions=tuple(predictions))


def confusion_tables(labels, predictions, true_labels=None) -> tuple[ConfusionTable, ...]:
    """One confusion table per fold that has predictions, in fold order.

    ``true_labels`` maps excerpt ids to corrected true labels (as
    ``faults.relabel_map`` gives); other predictions keep their own.
    """
    index = {label: i for i, label in enumerate(labels)}
    true_labels = true_labels or {}
    counts: dict[int, np.ndarray] = {}
    for p in predictions:
        fold = counts.setdefault(p.fold, np.zeros((len(labels), len(labels))))
        fold[index[p.predicted_label], index[true_labels.get(p.excerpt_id, p.true_label)]] += 1
    return tuple(ConfusionTable(labels=tuple(labels), counts=counts[f]) for f in sorted(counts))


def figures_of_merit(table: ConfusionTable) -> FiguresOfMerit:
    """Confusion fractions, recall, precision, F-score, normalized accuracy.

    Precision is undefined (None) for labels never predicted, and such
    labels carry no F-score either.
    """
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

    Inputs are iterables of PredictionRecord (or (id, true, predicted)
    triples). Only observations where exactly one system is correct count.
    """
    def as_map(preds):
        out = {}
        for p in preds:
            if isinstance(p, PredictionRecord):
                out[p.excerpt_id] = (p.true_label, p.predicted_label)
            else:
                eid, true, pred = p[0], p[1], p[2]
                out[eid] = (true, pred)
        return out

    m1, m2 = as_map(predictions_1), as_map(predictions_2)
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
