"""Landmark fingerprinting for exact-repetition detection.

Spectral peaks of the log-magnitude spectrogram are paired into
(anchor bin, target bin, frame delta) hashes. Two excerpts match when
many hashes agree on a single time offset; the score normalizes the
aligned count by the smaller hash count so truncated copies still score
high. The peak floor is relative (median log-magnitude + 10 dB), making
peak locations invariant to overall gain.

Peak picking is exact. A bin's neighborhood is a square window cut off
at the spectrogram's edges; for a maximum that is the same as
``scipy.ndimage.maximum_filter``'s default reflected border, and an even
size reaches one bin further back than forward, as scipy's does. The
local maxima are found without a dense window maximum. The spectrogram
is cut into square tiles of side ``T``, about a quarter of the window,
and each tile's maximum is taken. Only bins above the floor are
candidates. Each candidate is bounded by two blocks of tiles: an inner
block that lies inside its window, and an outer block that covers it. A
candidate below its inner block's maximum is not a local maximum; one at
or above its outer block's maximum is. The few left between the two are
checked against their window directly. The block maxima are window
maxima over the tile grid, which is ``T**2`` times smaller than the
spectrogram. The median is ``np.median``'s value, found by a selection
that partitions only a bracket of values around the median rank. A
spectrogram holding a nan has no median and gives no peaks.

Each ``HashSet`` also carries a probe table: a ``2**PROBE_BITS``-bit
table in which a multiplicative hash of ``k - 1``, ``k`` and ``k + 1`` is
marked for every key ``k`` it holds. ``match`` looks up the other set's
keys in it and only searches for the few whose slot is marked. The
filter is exact: a key within one of some key ``k`` of the set is one of
the three keys marked for ``k``, so its slot is always set, and a false
positive costs only a search that finds nothing.

A set's hashes are sorted by key with numpy's default, unstable sort: the
order of hashes with equal keys is left open. ``match`` does not see it. It
counts, for each searched key, the multiset of frames in a run of keys, and
then sorts the offsets of those hits, so any order of equal keys gives the
same sorted offsets. In that array each hit's pooled count, the hits whose
offset is within one frame of its own, is the distance between two
``searchsorted`` bounds.
"""

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, load_audio, read_records, write_records
from .errors import ParseError, TooShortError, in_file
from .features import FRAME_SIZE, frame_signal, stft_magnitude

DEFAULT_THRESHOLD = 0.25

CACHE_MAGIC = b"DFPK1"


# The landmark setting, read when peaks and hashes are computed. The framing
# is features.FRAME_SIZE/HOP, through stft_magnitude.
NEIGHBORHOOD = 15         # local-max window, frames x bins
MAX_PEAKS_PER_FRAME = 5
FLOOR_DB = 10.0           # above the median log magnitude
FAN_OUT = 8               # targets per anchor
MIN_DELTA = 1             # frames
MAX_DELTA = 64


@dataclass(frozen=True, eq=False)
class PeakConstellation:
    peaks: np.ndarray  # (n, 2) int64 rows of (frame, bin)


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
    are. The other fields are derived once, for ``match``: the keys and
    frames sorted by key, in no set order among equal keys, the packed probe
    table and each sorted key's slot in it, split into byte index and bit
    mask.
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
        order = np.argsort(hashes[:, 0])
        keys = hashes[order, 0]
        marked = np.zeros(1 << PROBE_BITS, dtype=bool)
        probed = _probe_slots(np.concatenate([keys - 1, keys, keys + 1]))
        marked[probed] = True
        slots = probed[len(keys):2 * len(keys)]  # the keys' own slots
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


def _window_max(values: np.ndarray, size: int) -> np.ndarray:
    """Each entry's maximum over the ``size`` x ``size`` window around it.

    The window spans ``[i - size // 2, i + (size - 1) // 2]`` on each axis
    and is cut off at the edges; the result equals
    ``scipy.ndimage.maximum_filter(values, size=(size, size))``.
    """
    for axis in (0, 1):
        values = np.swapaxes(_run_max(np.swapaxes(values, 0, axis), size), 0, axis)
    return values


def _run_max(values: np.ndarray, size: int) -> np.ndarray:
    """The window maximum of ``_window_max`` along axis 0 only."""
    length = len(values)
    runs = np.full((length + size - 1,) + values.shape[1:], -np.inf)
    runs[size // 2:size // 2 + length] = values
    width = 1  # runs[i] is the maximum of the padded rows i .. i + width - 1
    while 2 * width <= size:
        runs = np.maximum(runs[:-width], runs[width:])
        width *= 2
    return np.maximum(runs[:length], runs[size - width:size - width + length])


def _tile_max(values: np.ndarray, side: int) -> np.ndarray:
    """The maximum of each ``side`` x ``side`` tile; edge tiles may be cut short."""
    for axis in (0, 1):
        values = np.swapaxes(values, 0, axis)
        tiles = values[::side].copy()
        for k in range(1, side):
            rest = values[k::side]
            np.maximum(tiles[:len(rest)], rest, out=tiles[:len(rest)])
        values = np.swapaxes(tiles, 0, axis)
    return values


def _local_maxima(values: np.ndarray, size: int, floor: float) -> np.ndarray:
    """Flat indices, ascending, of the entries above ``floor`` that are the
    maximum of their ``_window_max`` window, for a nan-free 2-D array.

    The window reaches ``back = size // 2`` entries back and ``fwd =
    (size - 1) // 2`` forward on each axis. With tiles of side ``T = (fwd +
    1) // 2`` (at least 1), the 3 x 3 tiles around an entry's own tile lie
    inside its window when ``2T - 1 <= fwd``, and the ``2R + 1`` square of
    tiles with ``R = ceil(back / T)`` covers it. An entry below the first
    block's maximum is dropped, one at or above the second's is kept, and
    the rest are compared with their window directly.
    """
    if size < 1:
        raise ValueError(f"window size {size} is not positive")
    seeds = np.flatnonzero(values > floor)
    if not len(seeds):
        return seeds
    back, fwd = size // 2, (size - 1) // 2
    side = max(1, (fwd + 1) // 2)
    rows, cols = np.divmod(seeds, values.shape[1])
    seed_values = values[rows, cols]
    tiles = _tile_max(values, side)
    inner = _window_max(tiles, 3) if 2 * side - 1 <= fwd else tiles
    below = seed_values < inner[rows // side, cols // side]
    seeds, rows, cols, seed_values = (a[~below] for a in (seeds, rows, cols, seed_values))
    reach = -(-back // side)
    keep = seed_values >= _window_max(tiles, 2 * reach + 1)[rows // side, cols // side]
    # the rest: the maximum of each one's window, a row of the window at a
    # time; offsets clipped to the edge stay inside the cut-off window
    rest = np.flatnonzero(~keep)
    window_cols = np.clip(cols[rest, None] + np.arange(-back, fwd + 1), 0, values.shape[1] - 1)
    window_max = np.full(len(rest), -np.inf)
    for offset in range(-back, fwd + 1):
        window_rows = np.clip(rows[rest] + offset, 0, values.shape[0] - 1)
        np.maximum(window_max, values[window_rows[:, None], window_cols].max(axis=1),
                   out=window_max)
    keep[rest] = seed_values[rest] >= window_max
    return seeds[keep]


# The median's bracket: MEDIAN_MARGIN ranks either side of the median's in a
# strided sample of MEDIAN_SAMPLE to 2 * MEDIAN_SAMPLE values (all of them in
# a smaller array). In a random sample of m values the median's rank varies
# by sqrt(m) / 2 (64 to 91 here), so the bracket rarely misses; a miss costs
# time, not exactness.
MEDIAN_SAMPLE = 16384
MEDIAN_MARGIN = 256


def _median(values: np.ndarray) -> float:
    """``np.median(values)`` of a nan-free array, bit for bit.

    The values between two sample quantiles that bracket the median are
    partitioned, and the median rank is offset by the count of values
    below the bracket. When the bracket misses the rank, ``np.median``
    gives the value.
    """
    flat = values.ravel()
    low_rank, high_rank = (flat.size - 1) // 2, flat.size // 2
    sample = np.sort(flat[::max(1, flat.size // MEDIAN_SAMPLE)])
    at = len(sample) * low_rank // flat.size
    low = sample[max(0, at - MEDIAN_MARGIN)]
    high = sample[min(len(sample) - 1, at + MEDIAN_MARGIN)]
    below = np.count_nonzero(flat < low)
    inside = flat[(flat >= low) & (flat <= high)]
    if below > low_rank or below + len(inside) <= high_rank:
        return np.median(flat)
    middle = np.partition(inside, [low_rank - below, high_rank - below])
    # np.median's own last step: the mean of the one or two middle values
    return np.mean(middle[low_rank - below:high_rank - below + 1])


def find_peaks(samples: np.ndarray, out: np.ndarray | None = None) -> PeakConstellation:
    """Pick local maxima of the log-magnitude spectrogram.

    A bin qualifies when it is the maximum of its ``NEIGHBORHOOD`` x
    ``NEIGHBORHOOD`` window, cut off at the spectrogram's edges, and sits
    more than ``FLOOR_DB`` above the exact median log magnitude; at most
    ``MAX_PEAKS_PER_FRAME`` strongest peaks are kept per frame. A
    spectrogram holding a nan anywhere gives no peaks. The spectrogram is
    built in ``out`` when it is given (see ``stft_magnitude``), which is
    then overwritten.
    """
    log_mag = stft_magnitude(samples, out=out)
    log_mag += 1e-10
    np.log10(log_mag, out=log_mag)
    log_mag *= 20.0
    if np.isnan(log_mag).any():
        return PeakConstellation(peaks=np.empty((0, 2), dtype=np.int64))
    floor = _median(log_mag) + FLOOR_DB
    frames, bins = np.divmod(_local_maxima(log_mag, NEIGHBORHOOD, floor),
                             log_mag.shape[1])
    magnitudes = log_mag[frames, bins]
    # per frame, strongest first (ties: the higher bin first); keep the first
    # MAX_PEAKS_PER_FRAME of each frame, then restore frame-then-bin order
    order = np.lexsort((-bins, -magnitudes, frames))
    rank = np.arange(len(order)) - np.searchsorted(frames, frames[order])
    kept = np.sort(order[rank < MAX_PEAKS_PER_FRAME])
    return PeakConstellation(peaks=np.column_stack([frames[kept], bins[kept]]).astype(np.int64))


def landmark_hashes(peaks) -> np.ndarray:
    """(key, anchor frame) rows, in anchor then target order: each peak
    pairs with up to ``FAN_OUT`` later peaks ``MIN_DELTA`` to ``MAX_DELTA``
    frames on, in peak order.

    ``peaks`` are (frame, bin) rows in frame order, as ``find_peaks`` gives
    them, so an anchor's targets are one run of the peaks after it: from
    the first at least ``MIN_DELTA`` frames on, up to ``FAN_OUT`` of those at
    most ``MAX_DELTA`` frames on.
    """
    frames, bins = np.asarray(peaks, dtype=np.int64).reshape(-1, 2).T
    first = np.maximum(np.arange(1, len(frames) + 1),
                       np.searchsorted(frames, frames + MIN_DELTA))
    stop = np.searchsorted(frames, frames + MAX_DELTA, side="right")
    counts = np.clip(stop - first, 0, FAN_OUT)
    anchors = np.repeat(np.arange(len(frames)), counts)
    targets = np.repeat(first - (np.cumsum(counts) - counts), counts) + np.arange(counts.sum())
    keys = pack_key(bins[anchors], bins[targets], frames[targets] - frames[anchors])
    return np.column_stack([keys, frames[anchors]])


def compute_fingerprint(samples: np.ndarray, owner: str = "",
                        out: np.ndarray | None = None) -> HashSet:
    """The hash set of the clip's ``landmark_hashes``; ``out`` is ``find_peaks``'
    spectrogram buffer."""
    return HashSet(owner=owner, hashes=landmark_hashes(find_peaks(samples, out=out).peaks))


def fingerprint_corpus(corpus: Corpus, workers: int = 1) -> dict[str, HashSet]:
    """Each excerpt's hash set, keyed by id, from its audio.

    With ``workers`` above one, excerpts are loaded and hashed on that many
    threads; the result does not depend on the count. Each thread builds
    its spectrograms in one buffer for the whole pass, grown to the longest
    clip it has seen, so no clip-sized block is allocated and faulted in
    anew per clip.
    """
    local = threading.local()

    def one(ex):
        samples = load_audio(ex)
        with in_file(ex.audio_path, TooShortError):
            size = len(frame_signal(samples)) * (FRAME_SIZE // 2 + 1)
            if getattr(local, "buffer", np.empty(0)).size < size:
                local.buffer = np.empty(size)
            return ex.id, compute_fingerprint(samples, owner=ex.id, out=local.buffer)

    if workers <= 1:
        return dict(map(one, corpus.excerpts))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return dict(pool.map(one, corpus.excerpts))


def match(a: HashSet, b: HashSet) -> MatchScore:
    """Score two hash sets by their modal-offset aligned hash count.

    Agreement is at hop resolution: a delay that is not a whole number
    of hops moves each peak's frame up or down by one, so every pair of
    hashes whose keys differ by at most one counts (key +/- 1 is delta
    +/- 1 by construction of the packing), and offsets within one frame
    of the mode count as aligned. The modal offset is the one with the
    largest pooled count; ties go to the smallest offset magnitude, then
    to the positive offset.

    The hits' offsets are sorted, and an offset's pooled count is the
    number of hits in ``[offset - 1, offset + 1]``: two ``searchsorted``
    bounds in the sorted offsets. Only the multiset of offsets matters, so
    neither set's order of equal keys changes the score.

    Only the ``b`` hashes whose slot is marked in ``a``'s probe table are
    searched for. That drops no hit: a ``b`` key within one of an ``a``
    key ``k`` is ``k - 1``, ``k`` or ``k + 1``, all three marked for ``k``.
    """
    pair = (a.owner, b.owner)
    if not len(a.hashes) or not len(b.hashes):
        return MatchScore(pair=pair, aligned_hits=0, offset_mode=0, score=0.0)
    probed = ((a.probe_table[b.slot_bytes] & b.slot_bits) != 0).nonzero()[0]
    b_keys, b_frames = b.keys[probed], b.frames[probed]
    # for each probed b hash, the run of a hashes with key in [b_key - 1, b_key + 1];
    # the array methods skip the np.* functions' dispatch, a microsecond or two
    # a call on arrays this small
    lo = a.keys.searchsorted(b_keys - 1)
    runs = a.keys.searchsorted(b_keys + 2) - lo
    hits = int(runs.sum())
    if hits == 0:
        return MatchScore(pair=pair, aligned_hits=0, offset_mode=0, score=0.0)
    run_start = (lo - (runs.cumsum() - runs)).repeat(runs)
    offsets = a.frames[run_start + np.arange(hits)] - b_frames.repeat(runs)
    offsets.sort()
    # each hit's pooled count: the hits whose offset is within one of its own
    pooled = offsets.searchsorted(offsets + 1, side="right") - offsets.searchsorted(offsets - 1)
    aligned = int(pooled.max())
    offset = max(set(offsets[pooled == aligned].tolist()), key=lambda off: (-abs(off), off))
    score = min(1.0, aligned / min(len(a.hashes), len(b.hashes)))
    return MatchScore(pair=pair, aligned_hits=aligned, offset_mode=offset, score=score)


def match_all(hashsets, threshold: float) -> list[MatchScore]:
    """``match(a, b)`` for every two hash sets, ``a`` before ``b`` in owner order,
    that scores at least ``threshold``, in that order; at 0 or below, every pair.
    Neither the pairs nor their orientation depend on the order of ``hashsets``."""
    hashsets = sorted(hashsets, key=lambda hs: hs.owner)
    out = []
    for i in range(len(hashsets)):
        for j in range(i + 1, len(hashsets)):
            ms = match(hashsets[i], hashsets[j])
            if ms.score >= threshold:
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


def find_exact_repetitions(hashsets,
                           threshold: float = DEFAULT_THRESHOLD) -> list[tuple[str, ...]]:
    """The owners of ``hashsets`` in connected components of the match graph at
    the given threshold. Groups and their members are sorted lexicographically."""
    return connected_groups(ms.pair for ms in match_all(hashsets, threshold))


def write_cache(path, hashsets: dict[str, HashSet]) -> None:
    """Binary fingerprint cache: ``CACHE_MAGIC``, then one record per excerpt.

    The records are ``corpus.write_records``'s, with one ``<II`` (key,
    frame) row per hash, in hash order. A key or frame outside ``<u4``
    or an id too long for the record raises ValueError, naming the
    excerpt, before the file is opened.
    """
    for eid, hs in hashsets.items():
        if len(hs.hashes) and (hs.hashes.min() < 0 or hs.hashes.max() > 0xFFFFFFFF):
            raise ValueError(f"excerpt {eid!r}: a hash key or frame is outside 0..2**32-1")
    write_records(path, "fingerprint cache", CACHE_MAGIC,
                  {eid: hs.hashes for eid, hs in hashsets.items()}, "<u4")


def read_cache(path) -> dict[str, HashSet]:
    """Read a cache written by ``write_cache``; a malformed one raises ParseError."""
    return {eid: HashSet(owner=eid, hashes=pairs) for eid, pairs in
            read_records(path, "fingerprint cache", CACHE_MAGIC, "<u4", 2).items()}


def cached_fingerprints(corpus: Corpus, cache=None, workers: int = 1) -> dict[str, HashSet]:
    """Hash sets read from ``cache`` if it exists and covers the corpus (else
    ParseError), or fingerprinted on ``workers`` threads and written to ``cache``."""
    if cache and Path(cache).exists():
        hashsets = read_cache(cache)
        missing = [ex.id for ex in corpus.excerpts if ex.id not in hashsets]
        if missing:
            raise ParseError(f"{cache}: no fingerprints for excerpt {missing[0]!r}"
                             f" ({len(missing)} of {len(corpus.excerpts)} missing);"
                             " delete the cache to rebuild it")
        return hashsets
    hashsets = fingerprint_corpus(corpus, workers=workers)
    if cache:
        write_cache(cache, hashsets)
    return hashsets
