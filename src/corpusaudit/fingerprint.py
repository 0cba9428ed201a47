"""Landmark fingerprinting for exact-repetition detection.

Spectral peaks of the log-magnitude spectrogram are paired into
(anchor bin, target bin, frame delta) hashes. Two excerpts match when
many hashes agree on a single time offset; the score normalizes the
aligned count by the smaller hash count so truncated copies still score
high. The peak floor is relative (median log-magnitude + 10 dB), making
peak locations invariant to overall gain.

Each ``HashSet`` also carries a probe table: a ``2**PROBE_BITS``-bit
table in which a multiplicative hash of ``k - 1``, ``k`` and ``k + 1`` is
marked for every key ``k`` it holds. ``match`` looks up the other set's
keys in it and only searches for the few whose slot is marked. The
filter is exact: a key within one of some key ``k`` of the set is one of
the three keys marked for ``k``, so its slot is always set, and a false
positive costs only a search that finds nothing.
"""

import struct
from dataclasses import dataclass, field
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


# log2 of the probe table's size in bits: 32 KiB per hash set. Read when a
# set is built, so only sets built under the same value can be matched.
PROBE_BITS = 18

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier of Fibonacci hashing


def _probe_slots(keys: np.ndarray) -> np.ndarray:
    """Each int64 key's probe-table slot: the top ``PROBE_BITS`` bits of key x golden."""
    return (keys.astype(np.uint64) * _GOLDEN) >> np.uint64(64 - PROBE_BITS)


@dataclass(frozen=True, eq=False)
class HashSet:
    """One excerpt's landmark hashes.

    ``hashes`` is a read-only ``(n, 2)`` int64 array of (packed key,
    anchor frame) rows in hash order; any sequence of pairs is accepted
    and copied. Two sets are equal when their owners and hashes, in order,
    are. The other fields are derived once, for ``match``: the hashes
    sorted by key (stable), the packed probe table and each sorted key's
    slot in it, split into byte index and bit mask.
    """
    owner: str
    hashes: np.ndarray
    keys: np.ndarray = field(init=False, repr=False)
    frames: np.ndarray = field(init=False, repr=False)
    probe_table: np.ndarray = field(init=False, repr=False)
    slot_bytes: np.ndarray = field(init=False, repr=False)
    slot_bits: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        hashes = np.array(self.hashes, dtype=np.int64)
        if hashes.size == 0:
            hashes = hashes.reshape(0, 2)
        elif hashes.ndim != 2 or hashes.shape[1] != 2:
            raise ValueError(f"hashes of {self.owner!r} are not (key, frame) pairs: "
                             f"shape {hashes.shape}")
        hashes.flags.writeable = False
        order = np.argsort(hashes[:, 0], kind="stable")
        keys = hashes[order, 0]
        marked = np.zeros(1 << PROBE_BITS, dtype=bool)
        marked[_probe_slots(np.concatenate([keys - 1, keys, keys + 1]))] = True
        slots = _probe_slots(keys)
        derived = {
            "hashes": hashes,
            "keys": keys,
            "frames": hashes[order, 1],
            "probe_table": np.packbits(marked, bitorder="little"),
            "slot_bytes": (slots >> np.uint64(3)).astype(np.intp),
            "slot_bits": np.left_shift(1, slots & np.uint64(7)).astype(np.uint8),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, HashSet):
            return NotImplemented
        return self.owner == other.owner and np.array_equal(self.hashes, other.hashes)


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
    flat = []  # key, frame, key, frame, ...
    for i, (t1, f1, _) in enumerate(peaks):
        paired = 0
        for t2, f2, _ in peaks[i + 1:]:
            delta = t2 - t1
            if delta < params.min_delta:
                continue
            if delta > params.max_delta:
                break
            flat += (pack_key(f1, f2, delta), t1)
            paired += 1
            if paired >= params.fan_out:
                break
    return HashSet(owner=owner, hashes=np.array(flat, dtype=np.int64).reshape(-1, 2))


def match(a: HashSet, b: HashSet) -> MatchScore:
    """Score two hash sets by their modal-offset aligned hash count.

    Agreement is at hop resolution: a delay that is not a whole number
    of hops moves each peak's frame up or down by one, so every pair of
    hashes whose keys differ by at most one counts (key +/- 1 is delta
    +/- 1 by construction of the packing), and offsets within one frame
    of the mode count as aligned. The modal offset is the one with the
    largest pooled count; ties go to the smallest offset magnitude, then
    to the positive offset.

    Only the ``b`` hashes whose slot is marked in ``a``'s probe table are
    searched for. That drops no hit: a ``b`` key within one of an ``a``
    key ``k`` is ``k - 1``, ``k`` or ``k + 1``, all three marked for ``k``.
    """
    pair = (a.owner, b.owner)
    if not len(a.hashes) or not len(b.hashes):
        return MatchScore(pair=pair, aligned_hits=0, offset_mode=0, score=0.0)
    probed = ((a.probe_table[b.slot_bytes] & b.slot_bits) != 0).nonzero()[0]
    b_keys, b_frames = b.keys[probed], b.frames[probed]
    # for each probed b hash, the run of a hashes with key in [b_key - 1, b_key + 1]
    lo = np.searchsorted(a.keys, b_keys - 1)
    runs = np.searchsorted(a.keys, b_keys + 2) - lo
    hits = int(runs.sum())
    if hits == 0:
        return MatchScore(pair=pair, aligned_hits=0, offset_mode=0, score=0.0)
    run_start = np.repeat(lo - (np.cumsum(runs) - runs), runs)
    a_index = run_start + np.arange(hits)
    offsets, counts = np.unique(a.frames[a_index] - np.repeat(b_frames, runs),
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
    named = [hs if hs.owner == eid else HashSet(owner=eid, hashes=hs.hashes)
             for eid, hs in sorted(hashsets.items())]
    return connected_groups(ms.pair for ms in match_all(named, threshold))


def write_cache(path, hashsets: dict[str, HashSet]) -> None:
    """Binary fingerprint cache: magic, count, then per-excerpt records.

    A record is the UTF-8 id (``<H`` length first), the hash count
    (``<I``) and one ``<II`` (key, frame) pair per hash, in hash order.
    A key or frame outside ``<u4`` raises ValueError, naming the excerpt,
    before the file is opened.
    """
    for eid, hs in hashsets.items():
        if len(hs.hashes) and (hs.hashes.min() < 0 or hs.hashes.max() > 0xFFFFFFFF):
            raise ValueError(f"excerpt {eid!r}: a hash key or frame is outside 0..2**32-1")
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
            fh.write(hs.hashes.astype("<u4").tobytes())


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
        out[eid] = HashSet(owner=eid, hashes=pairs.reshape(n, 2))
    if pos != len(data):
        raise ParseError(f"{path}: {len(data) - pos} bytes after the last record")
    if len(out) != count or list(out) != sorted(out):
        # write_cache writes each id once, in sorted order
        raise ParseError(f"{path}: excerpt ids are not unique and in ascending order")
    return out
