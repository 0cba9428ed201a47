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

from .corpus import Corpus, TagPairs
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
    """Paired label scores of ``profiles`` and per-label significance margins."""

    profiles: tuple[LabelProfile, ...]
    scores: np.ndarray  # [g, r] = score of label g's top tags against label r
    deltas: np.ndarray

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.profiles)

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


def top_tags(tags) -> TopTags:
    """Select the top tags of a sequence of (tag, count) pairs.

    Counts may be raw integers or normalized floats. The result is the shortest
    descending-sorted prefix that ends at a strict count drop and covers
    a strict majority of the total; when no proper prefix qualifies, the
    whole set is returned.
    """
    pairs = list(tags)
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
    """(tag, count) pairs' counts divided by their total; the per-excerpt normalization."""
    if not tags:
        raise EmptyTagsError("no tag-count pairs")
    total = sum(c for _, c in tags)
    if total <= 0:
        raise EmptyTagsError("tag counts must be positive")
    return {t: c / total for t, c in tags}


def label_profile(label: str, tag_sets) -> LabelProfile:
    """Pool raw counts over the label's (tag, count) pair sequences and extract top tags.

    Pooled counts are summed per unique tag, normalized so they sum to 1,
    and the top-tag rule is applied to the normalized pairs.
    """
    pooled: dict[str, float] = {}
    for tags in tag_sets:
        for tag, count in tags:
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
    score = 0.0  # added left to right; Python 3.12's sum() would compensate
    for tag, d in profile.top.pairs:
        score += d * excerpt_tags.get(tag, 0.0)
    return score


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


def _profile_scores(profiles, rows: list[dict[str, float]]) -> np.ndarray:
    """``label_score`` of each of ``rows`` (tag -> share) against each profile, bit for
    bit, as a [profile, row] matrix: a top-tag x row matrix holds the shares, and each
    profile's scores add its top tags' ``d * x`` rows in top-tag order, from +0.0."""
    columns: dict[str, int] = {}  # every profile's top tags
    for p in profiles:
        for tag, _ in p.top.pairs:
            columns.setdefault(tag, len(columns))
    x = np.zeros((len(columns), len(rows)))  # [top tag, row]
    for j, row in enumerate(rows):
        for tag, share in row.items():
            if tag in columns:
                x[columns[tag], j] = share
    scores = np.zeros((len(profiles), len(rows)))
    for r, p in enumerate(profiles):
        for tag, d in p.top.pairs:
            scores[r] += d * x[columns[tag]]
    return scores


def score_matrix(profiles: list[LabelProfile]) -> ScoreMatrix:
    """Score every label's top tags against every profile."""
    scores = _profile_scores(profiles, [dict(p.top.pairs) for p in profiles]).T
    return ScoreMatrix(profiles=tuple(profiles), scores=scores,
                       deltas=np.array([delta_g(row) for row in scores]))


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


def detect_mislabelings(corpus: Corpus, tags: dict[str, TagPairs],
                        matrix: ScoreMatrix) -> list[MislabelVerdict]:
    """Score every identified, tagged excerpt and flag suspected mislabelings.

    Unidentified or untagged excerpts are skipped, and so are excerpts whose
    label is not in the matrix. The verdict keeps the full per-label score
    vector so downstream consumers can reuse it.

    The scores are ``label_score`` of ``normalize_counts`` against the matrix's
    profiles, bit for bit, for all excerpts at once (``_profile_scores``). The
    best other label is the first of the highest others, in matrix order.
    """
    labels = matrix.labels
    index = {label: r for r, label in enumerate(labels)}
    scored, rows = [], []
    for ex in corpus.excerpts:
        pairs = tags.get(ex.id) if ex.identified else None
        if not pairs:
            continue
        total = sum(c for _, c in pairs)
        if total <= 0:
            raise EmptyTagsError("tag counts must be positive")
        if ex.label in index:
            # a tag listed twice keeps its last share, as normalize_counts does
            rows.append({t: c / total for t, c in pairs})
            scored.append(ex)
    scores = _profile_scores(matrix.profiles, rows)
    own = np.array([index[ex.label] for ex in scored], dtype=np.intp)
    others = scores.copy()
    others[own, np.arange(len(scored))] = -np.inf
    best = others.argmax(axis=0) if len(labels) > 1 else np.zeros(len(scored), dtype=np.intp)

    verdicts = []
    for ex, row, g, b in zip(scored, scores.T.tolist(), own.tolist(), best.tolist()):
        best_other_label, best_other_score = (labels[b], row[b]) if b != g else (None, 0.0)
        rule = flag_rule(row[g], matrix.scores[g, g], best_other_score, matrix.deltas[g])
        verdicts.append(MislabelVerdict(
            excerpt_id=ex.id,
            label=ex.label,
            own_score=row[g],
            scores=dict(zip(labels, row)),
            best_other_label=best_other_label,
            best_other_score=best_other_score,
            flagged=rule != "none",
            rule=rule,
        ))
    return verdicts


def audit_labels(corpus: Corpus,
                 tags: dict[str, TagPairs]) -> tuple[ScoreMatrix, list[MislabelVerdict]]:
    """Profile each label from its identified, tagged excerpts, then score and flag.

    Labels without such excerpts get no profile and drop out of the matrix.
    """
    profiles = []
    for label in corpus.labels:
        sets = [tags[ex.id] for ex in corpus.with_label(label)
                if ex.identified and tags.get(ex.id)]
        if sets:
            profiles.append(label_profile(label, sets))
    matrix = score_matrix(profiles)
    return matrix, detect_mislabelings(corpus, tags, matrix)


def catalog_inputs(corpus: Corpus, tags: dict[str, TagPairs]) -> tuple[list, dict]:
    """``audit_labels``' flagged verdicts and label deltas, as ``build_catalog`` takes them."""
    matrix, verdicts = audit_labels(corpus, tags)
    return ([v for v in verdicts if v.flagged],
            {label: float(matrix.deltas[i]) for i, label in enumerate(matrix.labels)})
