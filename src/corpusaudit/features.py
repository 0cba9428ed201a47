"""Frame-level features and texture-window statistics.

The pipeline: 1024-sample frames with hop 512 (46.4 ms / 23.2 ms at
22050 Hz) -> per frame 13 MFCCs, zero-crossing count, spectral centroid
and rolloff (16 values) -> per block of 130 consecutive frames the mean
and variance of each dimension (32 values). A 30 s excerpt yields 1290
frames and nine texture vectors.

MFCCs follow the classic Slaney auditory-toolbox recipe: 40 unit-area
triangular mel filters from 133.33 Hz (13 linear, 27 log-spaced, topping
out near 6854 Hz), log filter energies floored at 1e-10, orthonormal
type-II DCT, coefficients 0-12.
"""

import csv
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np
from scipy.fft import dct, rfft

from .corpus import open_text
from .errors import IncompleteFeaturesError, ParseError, TooShortError

FRAME_SIZE = 1024
HOP = 512
TEXTURE_FRAMES = 130
N_FRAME_FEATURES = 16
N_TEXTURE_DIMS = 32

N_MEL_FILTERS = 40
MEL_LOW_HZ = 133.33333
MEL_LINEAR_STEP = 66.66667
MEL_N_LINEAR = 13
MEL_LOG_STEP = 1.0711703

ROLLOFF_FRACTION = 0.85
LOG_FLOOR = 1e-10


def frame_signal(samples: np.ndarray, frame_size: int = FRAME_SIZE,
                 hop: int = HOP) -> np.ndarray:
    """View of the signal as (n_frames, frame_size); no copy."""
    samples = np.asarray(samples)
    if samples.size < frame_size:
        raise TooShortError(
            f"need at least {frame_size} samples, got {samples.size}")
    view = np.lib.stride_tricks.sliding_window_view(samples, frame_size)
    return view[::hop]


def stft_magnitude(samples: np.ndarray, frame_size: int = FRAME_SIZE,
                   hop: int = HOP) -> np.ndarray:
    """Hann-windowed magnitude spectrogram, shape (n_frames, frame_size//2+1)."""
    frames = frame_signal(samples, frame_size, hop)
    window = np.hanning(frame_size)
    return np.abs(rfft(frames * window, axis=1))


@lru_cache(maxsize=8)
def mel_filterbank(sample_rate: int, n_fft: int = FRAME_SIZE,
                   n_filters: int = N_MEL_FILTERS) -> np.ndarray:
    """Unit-area triangular mel filterbank, shape (n_filters, n_fft//2+1)."""
    # center frequencies: 13 linearly spaced, then 27 log-spaced
    freqs = np.zeros(n_filters + 2)
    freqs[:MEL_N_LINEAR] = MEL_LOW_HZ + np.arange(MEL_N_LINEAR) * MEL_LINEAR_STEP
    freqs[MEL_N_LINEAR:] = freqs[MEL_N_LINEAR - 1] * (
        MEL_LOG_STEP ** np.arange(1, n_filters + 2 - MEL_N_LINEAR + 1))
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    fb = np.zeros((n_filters, n_fft // 2 + 1))
    for i in range(n_filters):
        lo, mid, hi = freqs[i], freqs[i + 1], freqs[i + 2]
        height = 2.0 / (hi - lo)
        rising = (bin_freqs - lo) / (mid - lo)
        falling = (hi - bin_freqs) / (hi - mid)
        fb[i] = height * np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


def frame_features(samples: np.ndarray, sample_rate: int = 22050) -> np.ndarray:
    """Per-frame feature matrix, shape (n_frames, 16).

    Columns: MFCC 0-12, zero-crossing count, spectral centroid (Hz),
    spectral rolloff (Hz). ZCR is counted on the raw, unwindowed frame.
    """
    frames = frame_signal(samples)
    mag = stft_magnitude(samples)

    energies = mag @ mel_filterbank(sample_rate).T
    log_energies = np.log(np.maximum(energies, LOG_FLOOR))
    mfcc = dct(log_energies, type=2, norm="ortho", axis=1)[:, :13]

    zcr = np.sum(frames[:, 1:] * frames[:, :-1] < 0, axis=1).astype(float)

    bin_freqs = np.arange(mag.shape[1]) * sample_rate / FRAME_SIZE
    mag_sums = np.sum(mag, axis=1)
    safe = np.where(mag_sums > 0, mag_sums, 1.0)
    centroid = np.where(mag_sums > 0, (mag @ bin_freqs) / safe, 0.0)

    cum = np.cumsum(mag, axis=1)
    target = ROLLOFF_FRACTION * mag_sums[:, None]
    roll_bins = np.argmax(cum >= target, axis=1)
    rolloff = np.where(mag_sums > 0, bin_freqs[roll_bins], 0.0)

    return np.column_stack([mfcc, zcr, centroid, rolloff])


def texture_vectors(frames: np.ndarray) -> np.ndarray:
    """Mean then variance per dimension over non-overlapping 130-frame blocks.

    Remainder frames beyond the last full block are discarded. Output
    shape is (n_blocks, 32): the 16 means followed by the 16 variances.
    """
    frames = np.asarray(frames, dtype=float)
    n_blocks = frames.shape[0] // TEXTURE_FRAMES
    if n_blocks == 0:
        raise TooShortError(
            f"need at least {TEXTURE_FRAMES} frames, got {frames.shape[0]}")
    blocks = frames[:n_blocks * TEXTURE_FRAMES].reshape(
        n_blocks, TEXTURE_FRAMES, frames.shape[1])
    return np.concatenate([blocks.mean(axis=1), blocks.var(axis=1)], axis=1)


def excerpt_features(samples: np.ndarray, sample_rate: int = 22050) -> np.ndarray:
    """Full pipeline: samples -> texture vectors, shape (n_blocks, 32)."""
    return texture_vectors(frame_features(samples, sample_rate))


@dataclass(frozen=True)
class NormalizationMap:
    """Per-dimension affine map learned on a training set."""

    mins: np.ndarray
    maxs: np.ndarray


def fit_normalization(vectors: np.ndarray) -> NormalizationMap:
    """Learn the per-dimension [0,1] map from training vectors."""
    vectors = np.asarray(vectors, dtype=float)
    if vectors.ndim != 2 or vectors.shape[0] < 1:
        raise ValueError("need a non-empty 2-D array of training vectors")
    return NormalizationMap(mins=vectors.min(axis=0), maxs=vectors.max(axis=0))


def apply_normalization(nmap: NormalizationMap, vectors: np.ndarray) -> np.ndarray:
    """Apply a learned map; values outside the training range are not clamped.

    Degenerate dimensions (max == min) map to 0 with a warning.
    """
    vectors = np.asarray(vectors, dtype=float)
    span = nmap.maxs - nmap.mins
    degenerate = span == 0
    if np.any(degenerate):
        warnings.warn("degenerate feature dimensions mapped to 0: "
                      f"{np.flatnonzero(degenerate).tolist()}")
    safe_span = np.where(degenerate, 1.0, span)
    out = (vectors - nmap.mins) / safe_span
    out[:, degenerate] = 0.0
    return out


def write_feature_cache(path, features: dict[str, np.ndarray]) -> None:
    """Write texture vectors as CSV rows ``id,window_index,f0..f31``."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "window_index"] + [f"f{i}" for i in range(N_TEXTURE_DIMS)])
        for eid in sorted(features):
            for w, vec in enumerate(features[eid]):
                writer.writerow([eid, w] + [repr(float(v)) for v in vec])


def read_feature_cache(path) -> dict[str, np.ndarray]:
    """Read a feature CSV back into id -> (n_windows, 32) arrays."""
    rows: dict[str, list[tuple[int, list[float]]]] = {}
    with open_text(path, "feature CSV") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["id", "window_index"]:
            raise IncompleteFeaturesError(f"{path}: not a feature cache")
        for lineno, row in enumerate(reader, start=2):
            try:
                entry = int(row[1]), [float(v) for v in row[2:]]
            except (IndexError, ValueError):
                raise ParseError(f"{path}:{lineno}: expected an id, an integer "
                                 "window_index and numeric features") from None
            rows.setdefault(row[0], []).append(entry)
    return {eid: np.array([vec for _, vec in sorted(entries)])
            for eid, entries in rows.items()}
