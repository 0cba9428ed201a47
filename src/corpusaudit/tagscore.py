"""Top-tag extraction, paired label scores, and mislabeling detection.

A label's profile is built by pooling raw tag counts over the identified
excerpts carrying that label, normalizing by the pooled total, and keeping
the top tags: the smallest strictly count-separated head of the sorted
list that covers more than half of the total count.

An excerpt's r-label score is the weighted overlap between its normalized
tags and label r's top-tag profile. An excerpt is flagged as mislabeled
when its own-label score falls an order of magnitude below the label's
self score (rule ``low_own``), or when some other label scores within the
label's significance margin of the self score (rule ``high_other``).
"""

from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, TagCountSet
from .errors import DegenerateRowError, EmptyTagsError


@dataclass(frozen=True)
class TopTags:
    """Minimal majority-covering, strictly separated head of a tag list."""

    pairs: tuple[tuple[str, float], ...]
    coverage: float
    """Share of the total count of the whole tag list held by ``pairs``."""


@dataclass(frozen=True)
class LabelProfile:
    label: str
    top: TopTags


@dataclass(frozen=True)
class ScoreMatrix:
    """Paired label scores and per-label significance margins."""

    labels: tuple[str, ...]
    scores: np.ndarray  # [g, r] = score of label g's top tags against label r
    deltas: np.ndarray

    def index(self, label: str) -> int:
        return self.labels.index(label)


@dataclass(frozen=True)
class MislabelVerdict:
    excerpt_id: str
    label: str
    own_score: float
    scores: dict[str, float] = field(compare=False)
    best_other_label: str | None
    best_other_score: float
    flagged: bool
    rule: str  # "low_own" | "high_other" | "none"


def _as_pairs(tags) -> list[tuple[str, float]]:
    if isinstance(tags, TagCountSet):
        return list(tags.pairs)
    return list(tags)


def top_tags(tags) -> TopTags:
    """Select the top tags of a tag-count set.

    Accepts a TagCountSet or a sequence of (tag, count) pairs; counts may
    be raw integers or normalized floats. The result is the shortest
    descending-sorted prefix that ends at a strict count drop and covers
    a strict majority of the total; when no proper prefix qualifies, the
    whole set is returned.
    """
    pairs = _as_pairs(tags)
    if not pairs:
        raise EmptyTagsError("no tag-count pairs")
    if any(c <= 0 for _, c in pairs):
        raise EmptyTagsError("tag counts must be positive")
    pairs.sort(key=lambda p: (-p[1], p[0]))
    total = sum(c for _, c in pairs)
    cum = 0.0
    for k in range(1, len(pairs) + 1):
        cum += pairs[k - 1][1]
        at_drop = k == len(pairs) or pairs[k][1] < pairs[k - 1][1]
        if at_drop and 2 * cum > total:
            return TopTags(pairs=tuple(pairs[:k]), coverage=cum / total)
    raise AssertionError("unreachable: the full set always qualifies")


def normalize_counts(tags) -> dict[str, float]:
    """Counts divided by their total; the per-excerpt normalization."""
    pairs = _as_pairs(tags)
    if not pairs:
        raise EmptyTagsError("no tag-count pairs")
    total = sum(c for _, c in pairs)
    if total <= 0:
        raise EmptyTagsError("tag counts must be positive")
    return {t: c / total for t, c in pairs}


def label_profile(label: str, tag_sets) -> LabelProfile:
    """Pool raw counts over the label's tag sets and extract top tags.

    Pooled counts are summed per unique tag, normalized so they sum to 1,
    and the top-tag rule is applied to the normalized pairs.
    """
    pooled: dict[str, float] = {}
    for tags in tag_sets:
        for tag, count in _as_pairs(tags):
            pooled[tag] = pooled.get(tag, 0) + count
    if not pooled:
        raise EmptyTagsError(f"label {label!r} has no tags")
    total = sum(pooled.values())
    normalized = [(t, c / total) for t, c in pooled.items()]
    return LabelProfile(label=label, top=top_tags(normalized))


def label_score(excerpt_tags: dict[str, float], profile: LabelProfile) -> float:
    """Weighted tag overlap with a label profile's top tags.

    ``excerpt_tags`` maps tags to normalized counts. Only the profile's
    top tags participate; disjoint tags score 0.
    """
    return sum(d * excerpt_tags.get(tag, 0.0) for tag, d in profile.top.pairs)


def delta_g(row) -> float:
    """Significance margin of one row of paired label scores.

    The row is sorted ascending, zeros included, and the margin is one
    tenth of the largest gap between adjacent scores.
    """
    vals = np.sort(np.asarray(list(row), dtype=float))
    if len(vals) < 2:
        raise DegenerateRowError("need at least two scores")
    spread = float(np.max(np.diff(vals)))
    if spread <= 0:
        raise DegenerateRowError("all scores equal; margin would be zero")
    return spread / 10.0


def score_matrix(profiles: list[LabelProfile]) -> ScoreMatrix:
    """Score every label's top tags against every profile."""
    labels = tuple(p.label for p in profiles)
    n = len(profiles)
    scores = np.zeros((n, n))
    for g, pg in enumerate(profiles):
        own = dict(pg.top.pairs)
        for r, pr in enumerate(profiles):
            scores[g, r] = label_score(own, pr)
    deltas = np.array([delta_g(scores[g]) for g in range(n)])
    return ScoreMatrix(labels=labels, scores=scores, deltas=deltas)


def flag_rule(own: float, diagonal: float, best_other: float,
              delta: float) -> str:
    """Which mislabeling rule fires for one excerpt's scores.

    ``low_own``: the own-label score sits an order of magnitude below the
    label's diagonal score. ``high_other``: some other label's score
    comes within the significance margin of (or exceeds) the diagonal.
    """
    if own < diagonal / 10.0:
        return "low_own"
    if best_other > diagonal - delta:
        return "high_other"
    return "none"


def detect_mislabelings(corpus: Corpus, tags: dict[str, TagCountSet],
                        profiles: list[LabelProfile],
                        matrix: ScoreMatrix | None = None) -> list[MislabelVerdict]:
    """Score every identified, tagged excerpt and flag suspected mislabelings.

    Unidentified or untagged excerpts are skipped. The verdict keeps the
    full per-label score vector so downstream consumers can reuse it.
    """
    if matrix is None:
        matrix = score_matrix(profiles)
    by_label = {p.label: p for p in profiles}
    verdicts = []
    for ex in corpus.excerpts:
        if not ex.identified:
            continue
        tcs = tags.get(ex.id)
        if tcs is None or not tcs.pairs:
            continue
        x = normalize_counts(tcs)
        scores = {label: label_score(x, by_label[label])
                  for label in matrix.labels if label in by_label}
        if ex.label not in scores:
            continue
        g = matrix.index(ex.label)
        own = scores[ex.label]
        diagonal = matrix.scores[g, g]
        delta = matrix.deltas[g]
        others = [(label, s) for label, s in scores.items() if label != ex.label]
        if others:
            best_other_label, best_other_score = max(others, key=lambda p: p[1])
        else:
            best_other_label, best_other_score = None, 0.0
        rule = flag_rule(own, diagonal, best_other_score, delta)
        verdicts.append(MislabelVerdict(
            excerpt_id=ex.id,
            label=ex.label,
            own_score=own,
            scores=scores,
            best_other_label=best_other_label,
            best_other_score=best_other_score,
            flagged=rule != "none",
            rule=rule,
        ))
    return verdicts


def audit_labels(corpus: Corpus,
                 tags: dict[str, TagCountSet]) -> tuple[ScoreMatrix, list[MislabelVerdict]]:
    """Profile each label from its identified, tagged excerpts, then score and flag.

    Labels without such excerpts get no profile and drop out of the matrix.
    """
    profiles = []
    for label in corpus.labels:
        sets = [tags[ex.id] for ex in corpus.with_label(label)
                if ex.identified and ex.id in tags and tags[ex.id].pairs]
        if sets:
            profiles.append(label_profile(label, sets))
    matrix = score_matrix(profiles)
    return matrix, detect_mislabelings(corpus, tags, profiles, matrix)


def catalog_inputs(corpus: Corpus, tags: dict[str, TagCountSet]) -> tuple[list, dict]:
    """``audit_labels``' flagged verdicts and label deltas, as ``build_catalog`` takes them."""
    matrix, verdicts = audit_labels(corpus, tags)
    return ([v for v in verdicts if v.flagged],
            {label: float(matrix.deltas[i]) for i, label in enumerate(matrix.labels)})
