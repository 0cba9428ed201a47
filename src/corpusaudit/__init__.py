"""Corpus-integrity auditing and fault-aware evaluation for labeled audio
datasets: duplicate detection by landmark fingerprinting, mislabeling
detection by tag-count scoring, fault cataloging, upper-bound "perfect"
statistics, and fault-filtered / artist-filtered classification
experiments with exact paired significance tests.
"""

from .classify import TrainedModel, classify_excerpt, train
from .corpus import (
    Corpus,
    Excerpt,
    TagCountSet,
    load_audio,
    load_metadata,
    load_tags,
    save_metadata,
    tag_coverage,
)
from .evaluate import (
    ConfusionTable,
    Partition,
    SignificanceResult,
    binomial_significance,
    figures_of_merit,
    make_partition,
    run_experiment,
    significance_test,
)
from .faults import (
    Distortion,
    FaultCatalog,
    RepetitionGroup,
    apply_relabeling,
    artist_bounds,
    build_catalog,
    load_catalog,
    perfect_confusion,
    perfect_statistics,
    save_catalog,
)
from .features import (
    NormalizationMap,
    apply_normalization,
    excerpt_features,
    fit_normalization,
    frame_features,
    texture_vectors,
)
from .fingerprint import (
    HashSet,
    MatchScore,
    compute_fingerprint,
    find_exact_repetitions,
    match,
)
from .tagscore import (
    LabelProfile,
    MislabelVerdict,
    ScoreMatrix,
    TopTags,
    delta_g,
    detect_mislabelings,
    flag_rule,
    label_profile,
    label_score,
    score_matrix,
    top_tags,
)

__version__ = "0.1.0"
