"""Corpus-integrity auditing and fault-aware evaluation for labeled audio
datasets: duplicate detection by landmark fingerprinting, mislabeling
detection by tag-count scoring, fault cataloging, upper-bound "perfect"
statistics, and fault-filtered / artist-filtered classification
experiments with exact paired significance tests.

The package root holds only ``__version__``; import the modules, as in
``from corpusaudit import fingerprint``.
"""

__version__ = "0.1.0"
