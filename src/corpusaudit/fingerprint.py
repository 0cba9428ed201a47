"""Landmark fingerprinting for exact-repetition detection.

Spectral peaks of the log-magnitude spectrogram are paired into
(anchor bin, target bin, frame delta) hashes. Two excerpts match when
many hashes agree on a single time offset; the score normalizes the
aligned count by the smaller hash count so truncated copies still score
high. The peak floor is relative (median log-magnitude + 10 dB), making
peak locations invariant to overall gain.
"""

import struct
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np
from scipy.ndimage import maximum_filter

from .corpus import Corpus, load_audio
from .errors import IoError, ParseError, reading, writing
from .features import stft_magnitude

DEFAULT_THRESHOLD = 0.25

CACHE_MAGIC = b"DFPK1"


@dataclass(frozen=True)
class FingerprintParams:
    frame_size: int = 1024
    hop: int = 512
    neighborhood: int = 15         # local-max window, frames x bins
    max_peaks_per_frame: int = 5
    floor_db: float = 10.0         # above the median log magnitude
    fan_out: int = 8               # targets per anchor
    min_delta: int = 1             # frames
    max_delta: int = 64


DEFAULT_PARAMS = FingerprintParams()


@dataclass(frozen=True)
class PeakConstellation:
    owner: str
    peaks: tuple[tuple[int, int, float], ...]  # (frame, bin, magnitude dB)


@dataclass(frozen=True)
class HashSet:
    owner: str
    hashes: tuple[tuple[int, int], ...]  # (packed key, anchor frame)

    @cached_property
    def by_key(self) -> tuple[np.ndarray, np.ndarray]:
        """The hashes as key-sorted int64 ``(keys, frames)`` arrays, built once."""
        flat = np.fromiter(chain.from_iterable(self.hashes), dtype=np.int64,
                           count=2 * len(self.hashes)).reshape(-1, 2)
        order = np.argsort(flat[:, 0], kind="stable")
        return flat[order, 0], flat[order, 1]


@dataclass(frozen=True)
class MatchScore:
    pair: tuple[str, str]
    aligned_hits: int
    offset_mode: int
    score: float


def pack_key(anchor_bin: int, target_bin: int, delta: int) -> int:
    return (anchor_bin << 17) | (target_bin << 7) | delta


def find_peaks(samples: np.ndarray, params: FingerprintParams = DEFAULT_PARAMS,
               owner: str = "") -> PeakConstellation:
    """Pick local maxima of the log-magnitude spectrogram.

    A bin qualifies when it is the maximum of its neighborhood and sits
    at least ``floor_db`` above the median log magnitude; at most
    ``max_peaks_per_frame`` strongest peaks are kept per frame.
    """
    mag = stft_magnitude(samples, params.frame_size, params.hop)
    log_mag = 20.0 * np.log10(mag + 1e-10)
    local_max = maximum_filter(
        log_mag, size=(params.neighborhood, params.neighborhood)) == log_mag
    floor = np.median(log_mag) + params.floor_db
    candidates = np.argwhere(local_max & (log_mag > floor))

    by_frame: dict[int, list[tuple[float, int]]] = {}
    for frame, fbin in candidates:
        by_frame.setdefault(int(frame), []).append((float(log_mag[frame, fbin]), int(fbin)))
    peaks = []
    for frame in sorted(by_frame):
        strongest = sorted(by_frame[frame], reverse=True)[:params.max_peaks_per_frame]
        for magnitude, fbin in sorted(strongest, key=lambda p: p[1]):
            peaks.append((frame, fbin, magnitude))
    return PeakConstellation(owner=owner, peaks=tuple(peaks))


def compute_fingerprint(samples: np.ndarray,
                        params: FingerprintParams = DEFAULT_PARAMS,
                        owner: str = "") -> HashSet:
    """Hash peak pairs: each anchor pairs with up to ``fan_out`` later peaks."""
    constellation = find_peaks(samples, params, owner)
    peaks = constellation.peaks
    hashes = []
    for i, (t1, f1, _) in enumerate(peaks):
        paired = 0
        for t2, f2, _ in peaks[i + 1:]:
            delta = t2 - t1
            if delta < params.min_delta:
                continue
            if delta > params.max_delta:
                break
            hashes.append((pack_key(f1, f2, delta), t1))
            paired += 1
            if paired >= params.fan_out:
                break
    return HashSet(owner=owner, hashes=tuple(hashes))


def match(a: HashSet, b: HashSet) -> MatchScore:
    """Score two hash sets by their modal-offset aligned hash count.

    Agreement is at hop resolution: a delay that is not a whole number
    of hops moves each peak's frame up or down by one, so every pair of
    hashes whose keys differ by at most one counts (key +/- 1 is delta
    +/- 1 by construction of the packing), and offsets within one frame
    of the mode count as aligned. The modal offset is the one with the
    largest pooled count; ties go to the smallest offset magnitude, then
    to the positive offset.
    """
    pair = (a.owner, b.owner)
    if not a.hashes or not b.hashes:
        return MatchScore(pair=pair, aligned_hits=0, offset_mode=0, score=0.0)
    a_keys, a_frames = a.by_key
    b_keys, b_frames = b.by_key
    # for each b hash, the run of a hashes with key in [b_key - 1, b_key + 1]
    lo = np.searchsorted(a_keys, b_keys - 1)
    runs = np.searchsorted(a_keys, b_keys + 2) - lo
    hits = int(runs.sum())
    if hits == 0:
        return MatchScore(pair=pair, aligned_hits=0, offset_mode=0, score=0.0)
    run_start = np.repeat(lo - (np.cumsum(runs) - runs), runs)
    a_index = run_start + np.arange(hits)
    offsets, counts = np.unique(a_frames[a_index] - np.repeat(b_frames, runs),
                                return_counts=True)
    pooled = counts.copy()
    adjacent = np.flatnonzero(np.diff(offsets) == 1)
    pooled[adjacent] += counts[adjacent + 1]
    pooled[adjacent + 1] += counts[adjacent]
    aligned = int(pooled.max())
    offset = max(offsets[pooled == aligned].tolist(), key=lambda off: (-abs(off), off))
    score = min(1.0, aligned / min(len(a.hashes), len(b.hashes)))
    return MatchScore(pair=pair, aligned_hits=aligned, offset_mode=offset, score=score)


def match_all(hashsets: list[HashSet], threshold: float | None = None) -> list[MatchScore]:
    """All-pairs matching; optionally keep only scores >= threshold."""
    out = []
    for i in range(len(hashsets)):
        for j in range(i + 1, len(hashsets)):
            ms = match(hashsets[i], hashsets[j])
            if threshold is None or ms.score >= threshold:
                out.append(ms)
    return out


def connected_groups(edges) -> list[tuple[str, ...]]:
    """Connected components of two or more ids of an undirected edge list.

    Members of each group are sorted, and so is the list of groups.
    """
    parent: dict[str, str] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict[str, list[str]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    return sorted(tuple(sorted(g)) for g in groups.values() if len(g) > 1)


def find_exact_repetitions(corpus: Corpus, threshold: float = DEFAULT_THRESHOLD,
                           params: FingerprintParams = DEFAULT_PARAMS,
                           hashsets: dict[str, HashSet] | None = None) -> list[tuple[str, ...]]:
    """Connected components of the match graph at the given threshold.

    Fingerprints are computed from corpus audio unless precomputed hash
    sets are supplied; supplied sets are grouped by their dict keys.
    Groups and their members are sorted lexicographically.
    """
    if hashsets is None:
        hashsets = {}
        for ex in corpus.excerpts:
            if ex.audio_path is None:
                raise IoError(f"excerpt {ex.id!r} has no audio")
            samples = load_audio(ex, corpus.sample_rate)
            hashsets[ex.id] = compute_fingerprint(samples, params, owner=ex.id)
    named = [hs if hs.owner == eid else replace(hs, owner=eid)
             for eid, hs in sorted(hashsets.items())]
    return connected_groups(ms.pair for ms in match_all(named, threshold))


def write_cache(path, hashsets: dict[str, HashSet]) -> None:
    """Binary fingerprint cache: magic, count, then per-excerpt records.

    A record is the UTF-8 id (``<H`` length first), the hash count
    (``<I``) and one ``<II`` (key, frame) pair per hash, in hash order.
    """
    path = Path(path)
    with writing(path, "fingerprint cache"), path.open("wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<I", len(hashsets)))
        for eid in sorted(hashsets):
            encoded = eid.encode("utf-8")
            hs = hashsets[eid]
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", len(hs.hashes)))
            fh.write(np.fromiter(chain.from_iterable(hs.hashes), dtype="<u4",
                                 count=2 * len(hs.hashes)).tobytes())


def read_cache(path) -> dict[str, HashSet]:
    """Read a cache written by ``write_cache``; a malformed one raises ParseError."""
    path = Path(path)
    with reading(path, "fingerprint cache"):
        data = path.read_bytes()
    if data[:5] != CACHE_MAGIC:
        raise ParseError(f"{path}: not a fingerprint cache")
    pos = len(CACHE_MAGIC)

    def take(size: int) -> int:
        """Offset of the next ``size`` bytes, which must all be present."""
        nonlocal pos
        if pos + size > len(data):
            raise ParseError(f"{path}: truncated fingerprint cache "
                             f"({len(data)} bytes, record needs {pos + size})")
        pos += size
        return pos - size

    (count,) = struct.unpack_from("<I", data, take(4))
    out = {}
    for _ in range(count):
        (id_len,) = struct.unpack_from("<H", data, take(2))
        start = take(id_len)
        try:
            eid = data[start:start + id_len].decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"{path}: excerpt id at byte {start} is not UTF-8") from None
        (n,) = struct.unpack_from("<I", data, take(4))
        pairs = np.frombuffer(data, dtype="<u4", count=2 * n, offset=take(8 * n))
        out[eid] = HashSet(owner=eid, hashes=tuple(zip(pairs[0::2].tolist(),
                                                       pairs[1::2].tolist())))
    if pos != len(data):
        raise ParseError(f"{path}: {len(data) - pos} bytes after the last record")
    return out
