"""Frame-level features and texture-window statistics.

The pipeline: 1024-sample frames with hop 512 (46.4 ms / 23.2 ms at
22050 Hz) -> per frame 13 MFCCs, zero-crossing count, spectral centroid
and rolloff (16 values) -> per block of 130 consecutive frames the mean
and variance of each dimension (32 values). A 30 s excerpt yields 1290
frames and nine texture vectors.

MFCCs follow the classic Slaney auditory-toolbox recipe: 40 unit-area
triangular mel filters from 133.33 Hz (13 linear, 27 log-spaced, topping
out near 6854 Hz), log filter energies floored at 1e-10, orthonormal
type-II DCT, coefficients 0-12. The DCT is numpy's own copy of the one
``scipy.fft.dct(..., type=2, norm="ortho")`` runs, and gives its bits.
"""

import csv
import hashlib
import io
import math
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .corpus import SAMPLE_RATE, open_text, read_records, write_records
from .errors import (IncompleteFeaturesError, IoError, ParseError, TooShortError, reading,
                     writing)

FRAME_SIZE = 1024  # samples per frame, for the features and the fingerprints
HOP = 512
BIN_FREQS = np.arange(FRAME_SIZE // 2 + 1) * SAMPLE_RATE / FRAME_SIZE  # Hz of each STFT bin
TEXTURE_FRAMES = 130
N_TEXTURE_DIMS = 32

N_MEL_FILTERS = 40
MEL_LOW_HZ = 133.33333
MEL_LINEAR_STEP = 66.66667
MEL_N_LINEAR = 13
MEL_LOG_STEP = 1.0711703

ROLLOFF_FRACTION = 0.85
LOG_FLOOR = 1e-10


def frame_signal(samples: np.ndarray) -> np.ndarray:
    """View of the signal as (n_frames, FRAME_SIZE), one frame every HOP samples; no copy."""
    samples = np.asarray(samples)
    if samples.size < FRAME_SIZE:
        raise TooShortError(
            f"need at least {FRAME_SIZE} samples, got {samples.size}")
    view = np.lib.stride_tricks.sliding_window_view(samples, FRAME_SIZE)
    return view[::HOP]


STFT_BLOCK = 16  # frames windowed and transformed per rfft call


def stft_magnitude(samples: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Hann-windowed magnitude spectrogram, shape (n_frames, FRAME_SIZE//2+1).

    Frames are windowed, transformed and rectified ``STFT_BLOCK`` at a time
    in one reused buffer, so no windowed copy or complex spectrum of the
    whole clip is built. The FFT transforms each row on its own, so the
    result is the one-call ``np.abs(np.fft.rfft(frames * window, axis=1))``,
    bit for bit. An infinite sample gives inf and nan bins and no warning.
    Given ``out``, a contiguous float64 array of at least
    ``n_frames * (FRAME_SIZE//2+1)`` entries, the result is written into
    its start and returned as a view of it.
    """
    frames = frame_signal(samples)
    window = np.hanning(FRAME_SIZE)
    shape = (len(frames), FRAME_SIZE // 2 + 1)
    if out is None:
        out = np.empty(shape)
    else:
        out = out.reshape(-1)[:shape[0] * shape[1]].reshape(shape)
    block = np.empty((min(STFT_BLOCK, len(frames)), FRAME_SIZE))
    # an infinity times the window's zero end, and numpy's rfft on an infinity,
    # would warn
    with np.errstate(invalid="ignore"):
        for start in range(0, len(frames), STFT_BLOCK):
            chunk = frames[start:start + STFT_BLOCK]
            windowed = np.multiply(chunk, window, out=block[:len(chunk)])
            np.abs(np.fft.rfft(windowed, axis=1), out=out[start:start + len(chunk)])
    return out


def mel_filterbank() -> np.ndarray:
    """Unit-area triangular mel filterbank at ``SAMPLE_RATE``, shape
    (N_MEL_FILTERS, FRAME_SIZE//2+1); ``MEL_BANK`` holds it."""
    # center frequencies: 13 linearly spaced, then 27 log-spaced
    freqs = np.zeros(N_MEL_FILTERS + 2)
    freqs[:MEL_N_LINEAR] = MEL_LOW_HZ + np.arange(MEL_N_LINEAR) * MEL_LINEAR_STEP
    freqs[MEL_N_LINEAR:] = freqs[MEL_N_LINEAR - 1] * (
        MEL_LOG_STEP ** np.arange(1, N_MEL_FILTERS + 2 - MEL_N_LINEAR + 1))
    fb = np.zeros((N_MEL_FILTERS, FRAME_SIZE // 2 + 1))
    for i in range(N_MEL_FILTERS):
        lo, mid, hi = freqs[i], freqs[i + 1], freqs[i + 2]
        height = 2.0 / (hi - lo)
        rising = (BIN_FREQS - lo) / (mid - lo)
        falling = (hi - BIN_FREQS) / (hi - mid)
        fb[i] = height * np.clip(np.minimum(rising, falling), 0.0, None)
    return fb


MEL_BANK = mel_filterbank()
BIN_FREQS.flags.writeable = MEL_BANK.flags.writeable = False  # shared by every caller


def mel_energies(mag: np.ndarray) -> np.ndarray:
    """``mag @ MEL_BANK.T`` as fixed-order sums over each filter's nonzero weights.
    OpenBLAS splits a product by its thread count, so the product's last digits
    depend on that count; these sums do not. Every filter has a nonzero weight
    below the Nyquist frequency of ``SAMPLE_RATE``, so no run is empty."""
    rows, bins = np.nonzero(MEL_BANK)
    weighted = np.take(mag, bins, axis=1)
    weighted *= MEL_BANK[rows, bins]
    return np.add.reduceat(weighted, np.searchsorted(rows, np.arange(len(MEL_BANK))), axis=1)


def _dct_twiddles(n: int) -> np.ndarray:
    """cos(pi * (i + 1) / (2 * n)) for i < n, rounded as pocketfft's ``T_dcst23``
    twiddles are: the real parts of its ``sincos_2pibyn(4 * n)`` table. Entry j of
    that table is the complex product of a fine and a coarse entry, j's low
    ``shift`` bits and the rest, each the cos and sin of a multiple of
    ``ang = pi / (16 * n)`` reduced to an octant. For n = 40 (shift 4) both lie
    in the first quadrant for every j <= n. Plain ``np.cos`` differs from this
    table in 15 of 40 entries."""
    size = 4 * n
    pi = np.longdouble("3.141592653589793238462643383279502884197")
    ang = float(np.longdouble(0.25) * pi / np.longdouble(size))

    def sincos(j):  # cos and sin of 2*pi*j/size, for 8*j < 2*size
        x = 8 * j
        if x < size:
            return math.cos(x * ang), math.sin(x * ang)
        return math.sin((2 * size - x) * ang), math.cos((2 * size - x) * ang)

    shift = 1
    while (1 << shift) * (1 << shift) < (size + 2) // 2:
        shift += 1
    mask = (1 << shift) - 1
    twiddles = np.empty(n)
    for i in range(n):
        fine, coarse = sincos((i + 1) & mask), sincos((i + 1) >> shift << shift)
        twiddles[i] = fine[0] * coarse[0] - fine[1] * coarse[1]
    return twiddles


_DCT_TWIDDLES = _dct_twiddles(N_MEL_FILTERS)
_DCT_TWIDDLES.flags.writeable = False
# pocketfft's orthonormal scale, 1/sqrt(2n) rounded from long double
_DCT_SCALE = float(1 / np.sqrt(np.longdouble(2 * N_MEL_FILTERS)))


def _dct_ortho(x: np.ndarray) -> np.ndarray:
    """Orthonormal type-II DCT of each row of ``x``, shape (rows, N_MEL_FILTERS),
    bit for bit ``scipy.fft.dct(x, type=2, norm="ortho", axis=1)``.

    The steps are pocketfft's ``T_dcst23`` for an even length n: pre-twiddle
    the input into FFTPACK halfcomplex order, take its unnormalized backward
    real FFT (numpy's ``irfft`` runs the same pocketfft), scale by
    ``_DCT_SCALE``, and combine each coefficient k with n - k.
    """
    n = N_MEL_FILTERS
    half = n // 2
    # the halfcomplex c[0], c[1] + i c[2], ..., c[n-1] as complex pairs: (c[0], 0),
    # (c[1], c[2]), ..., (c[n-1], 0), with c[0] and c[n-1] doubled and each
    # (c[k], c[k+1]), k odd, replaced by their sum and difference
    packed = np.zeros((len(x), n + 2))
    np.multiply(x[:, 0], 2, out=packed[:, 0])
    odd, even = x[:, 1:n - 1:2], x[:, 2:n:2]
    np.add(even, odd, out=packed[:, 2:n:2])
    np.subtract(even, odd, out=packed[:, 3:n:2])
    np.multiply(x[:, n - 1], 2, out=packed[:, n])
    c = np.fft.irfft(packed.view(complex), n=n, axis=1, norm="forward")
    c *= _DCT_SCALE
    low, high = c[:, 1:half], c[:, n - 1:half:-1]  # c[k] and c[n - k], 0 < k < n/2
    w_low, w_high = _DCT_TWIDDLES[:half - 1], _DCT_TWIDDLES[n - 2:half - 1:-1]
    t1 = w_low * high + w_high * low
    t2 = w_low * low - w_high * high
    out = np.empty_like(c)
    out[:, 0] = c[:, 0] * (math.sqrt(2) * 0.5)
    out[:, 1:half] = 0.5 * (t1 + t2)
    out[:, half] = c[:, half] * _DCT_TWIDDLES[half - 1]
    out[:, n - 1:half:-1] = 0.5 * (t1 - t2)
    return out


def zero_crossings(samples: np.ndarray, n_frames: int) -> np.ndarray:
    """Each frame's count of adjacent samples whose product is negative, as floats.

    A frame is two ``HOP``-sample halves (``FRAME_SIZE == 2 * HOP``), and
    its second half is the next frame's first. So the signal's products
    are taken once and counted within each half, and a frame's count is
    its first half's, that of the one pair across its middle, and its
    second half's.
    """
    halves = np.asarray(samples)[:(n_frames + 1) * HOP]
    changes = np.zeros(len(halves), dtype=bool)  # the last pair crosses out of the frames
    np.less(halves[1:] * halves[:-1], 0, out=changes[:-1])
    changes = changes.reshape(n_frames + 1, HOP)
    within = np.count_nonzero(changes[:, :-1], axis=1)
    return (within[:-1] + changes[:-1, -1] + within[1:]).astype(float)


def frame_features(samples: np.ndarray) -> np.ndarray:
    """Per-frame feature matrix, shape (n_frames, 16).

    Columns: MFCC 0-12, zero-crossing count, spectral centroid (Hz),
    spectral rolloff (Hz). ZCR is counted on the raw, unwindowed frame.
    """
    mag = stft_magnitude(samples)

    energies = mel_energies(mag)
    log_energies = np.log(np.maximum(energies, LOG_FLOOR))
    mfcc = _dct_ortho(log_energies)[:, :13]

    zcr = zero_crossings(samples, len(mag))

    mag_sums = np.sum(mag, axis=1)
    safe = np.where(mag_sums > 0, mag_sums, 1.0)
    # a fixed-order sum, as in mel_energies, not a BLAS product
    centroid = np.where(mag_sums > 0, np.sum(mag * BIN_FREQS, axis=1) / safe, 0.0)

    cum = np.cumsum(mag, axis=1)
    target = ROLLOFF_FRACTION * mag_sums[:, None]
    roll_bins = np.argmax(cum >= target, axis=1)
    rolloff = np.where(mag_sums > 0, BIN_FREQS[roll_bins], 0.0)

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


def excerpt_features(samples: np.ndarray) -> np.ndarray:
    """Full pipeline: samples -> texture vectors, shape (n_blocks, 32).

    Only the frames of whole texture windows are computed; the result is
    ``texture_vectors(frame_features(samples))``. Fewer frames than one
    window raise ``texture_vectors``' TooShortError, before any frame is
    computed.
    """
    n_frames = len(frame_signal(samples))
    if n_frames < TEXTURE_FRAMES:
        raise TooShortError(f"need at least {TEXTURE_FRAMES} frames, got {n_frames}")
    used = n_frames // TEXTURE_FRAMES * TEXTURE_FRAMES
    return texture_vectors(frame_features(np.asarray(samples)[:FRAME_SIZE + (used - 1) * HOP]))


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


def apply_normalization(nmap: NormalizationMap, vectors: np.ndarray,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Apply a learned map; values outside the training range are not clamped.

    Degenerate dimensions (max == min) map to 0 with a warning. The result
    is written into ``out``, a float64 array of the vectors' shape, and
    returned; ``out`` may be ``vectors`` itself. Without it, one array is
    allocated for the result and ``vectors`` is left unchanged.
    """
    vectors = np.asarray(vectors, dtype=float)
    span = nmap.maxs - nmap.mins
    degenerate = span == 0
    if np.any(degenerate):
        warnings.warn("degenerate feature dimensions mapped to 0: "
                      f"{np.flatnonzero(degenerate).tolist()}")
    safe_span = np.where(degenerate, 1.0, span)
    out = np.subtract(vectors, nmap.mins, out=out)
    np.divide(out, safe_span, out=out)
    out[:, degenerate] = 0.0
    return out


COMPANION_MAGIC = b"DFTX2"
_HASH_CHUNK = 1 << 16


def companion_path(path) -> Path:
    """Where ``write_feature_cache`` puts the binary companion of a feature CSV."""
    path = Path(path)
    return path.with_name(path.name + ".bin")


def _csv_digest(path) -> bytes:
    """SHA-256 of the file's bytes, read in chunks into one reused buffer."""
    digest = hashlib.sha256()
    buffer = memoryview(bytearray(_HASH_CHUNK))
    with reading(path, "feature CSV"), open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            digest.update(buffer[:n])
    return digest.digest()


def write_feature_cache(path, features: dict[str, np.ndarray]) -> None:
    """Write texture vectors as CSV rows ``id,window_index,f0..f31``, then the companion.

    The companion, ``companion_path(path)``, holds the same values as
    ``corpus.write_records`` records of ``<f8`` windows, after a header of
    ``COMPANION_MAGIC`` and the SHA-256 of the CSV's bytes. Every nan is
    stored as the canonical nan, which is what the CSV gives back. An id
    with no windows has no CSV rows and no record; an id too long for a
    record leaves no companion.
    """
    path = Path(path)
    for eid, vectors in features.items():
        shape = np.shape(vectors)
        if len(shape) != 2 or shape[1] != N_TEXTURE_DIMS:
            raise ValueError(f"features for {eid!r}: expected shape "
                             f"(n, {N_TEXTURE_DIMS}), got {shape}")
    # the bytes csv.writer writes: excel dialect, \r\n line ends, an id quoted
    # only where it needs it, each value its float's repr; hashed as written
    digest = hashlib.sha256()
    field = io.StringIO()
    quote = csv.writer(field)
    with writing(path, "feature CSV"), path.open("wb") as fh:
        def write(text: str) -> None:
            data = text.encode("utf-8")
            fh.write(data)
            digest.update(data)

        write("id,window_index," + ",".join(f"f{i}" for i in range(N_TEXTURE_DIMS)) + "\r\n")
        for eid in sorted(features):
            field.seek(0)
            field.truncate()
            quote.writerow([eid, ""])
            prefix = field.getvalue()[:-2]  # the id field and its comma
            # repr on the Python floats of tolist() is far cheaper than on numpy's
            write("".join(f"{prefix}{w},{','.join(map(repr, vec))}\r\n" for w, vec
                          in enumerate(np.asarray(features[eid], dtype=float).tolist())))
    windows = {eid: np.asarray(v, dtype=float) for eid, v in features.items() if len(v)}
    for eid, values in windows.items():
        if np.isnan(values).any():  # a copy: the caller's arrays keep their nans
            windows[eid] = np.where(np.isnan(values), np.nan, values)
    try:
        write_records(companion_path(path), "feature companion",
                      COMPANION_MAGIC + digest.digest(), windows, "<f8")
    except ValueError:
        pass  # an id too long for a record; readers parse the CSV


def read_feature_cache(path) -> dict[str, np.ndarray]:
    """Read a feature CSV back into id -> (n_windows, n_features) arrays.

    When the companion ``write_feature_cache`` left next to the CSV is
    well-formed, holds the SHA-256 of the CSV's bytes and has no empty
    record, its arrays are returned and nothing is parsed. Otherwise, the
    companion missing, stale (an older format's, say) or damaged, the CSV
    is parsed.
    """
    header = COMPANION_MAGIC + _csv_digest(path)
    try:
        cached = read_records(companion_path(path), "feature companion", header,
                              "<f8", N_TEXTURE_DIMS)
        if all(len(v) for v in cached.values()):
            return cached
    except (ParseError, IoError):
        pass
    return _parse_feature_csv(path)


def _parse_feature_csv(path) -> dict[str, np.ndarray]:
    """Parse a feature CSV into id -> (n_windows, n_features) arrays.

    Rows stream through one ``csv.reader``; all feature values go through
    ``float`` in a single ``np.fromiter`` pass. Each id's rows are ordered
    by window index (rows sharing one by their values, as tuples sort).
    """
    with open_text(path, "feature CSV") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["id", "window_index"]:
            raise IncompleteFeaturesError(f"{path}: not a feature cache")
        if len(header) < 3:
            raise IncompleteFeaturesError(f"{path}: no feature columns after id,window_index")
        rows = []  # (id, window index, field count, line) per data row

        def value_fields():
            for row in reader:
                rows.append((row[0], int(row[1]), len(row), reader.line_num))
                yield row[2:]

        try:
            values = np.fromiter(map(float, chain.from_iterable(value_fields())), dtype=float)
        except UnicodeDecodeError:
            raise  # a ValueError that open_text, not this parse, reports
        except (IndexError, ValueError):
            raise ParseError(f"{path}:{reader.line_num}: expected an id, an integer "
                             "window_index and numeric features") from None
    ids, windows, widths, lines = zip(*rows) if rows else ((), (), (), ())
    wrong = np.flatnonzero(np.array(widths, dtype=int) != len(header))
    if wrong.size:
        r = wrong[0]
        raise ParseError(f"{path}:{lines[r]}: expected {len(header)} fields as in the "
                         f"header, got {widths[r]}")
    table = values.reshape(len(rows), len(header) - 2)
    by_id: dict[str, list[int]] = {}
    for r, eid in enumerate(ids):
        by_id.setdefault(eid, []).append(r)
    out = {}
    for eid, order in by_id.items():
        order.sort(key=lambda r: (windows[r], table[r].tolist()))
        out[eid] = table[order]
    return out
