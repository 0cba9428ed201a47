import dataclasses
import hashlib
import re
import struct
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import maximum_filter

from corpusaudit import fingerprint
from corpusaudit.errors import IoError, ParseError
from corpusaudit.features import (
    COMPANION_MAGIC,
    FRAME_SIZE,
    HOP,
    N_TEXTURE_DIMS,
    companion_path,
    frame_features,
    read_feature_cache,
    stft_magnitude,
    write_feature_cache,
)
from corpusaudit.fingerprint import (
    CACHE_MAGIC,
    DEFAULT_THRESHOLD,
    HashSet,
    MatchScore,
    PeakConstellation,
    cached_fingerprints,
    compute_fingerprint,
    connected_groups,
    find_exact_repetitions,
    find_peaks,
    fingerprint_corpus,
    match,
    match_all,
    pack_key,
    read_cache,
    write_cache,
)
from corpusaudit.corpus import Corpus, Excerpt, load_audio, read_records, write_records
from corpusaudit.synth import delayed_copy, tone_cloud

SR = 22050


def reference_match(a: HashSet, b: HashSet) -> MatchScore:
    """The dict/Counter formulation of ``match``, kept as its oracle."""
    pair = (a.owner, b.owner)
    if not len(a.hashes) or not len(b.hashes):
        return MatchScore(pair=pair, aligned_hits=0, offset_mode=0, score=0.0)
    index: dict[int, list[int]] = {}
    for key, frame in b.hashes.tolist():
        index.setdefault(key, []).append(frame)
    offsets: Counter = Counter()
    for key, frame in a.hashes.tolist():
        for probe in (key - 1, key, key + 1):
            for bframe in index.get(probe, ()):
                offsets[frame - bframe] += 1
    if not offsets:
        return MatchScore(pair=pair, aligned_hits=0, offset_mode=0, score=0.0)
    pooled = {off: offsets[off - 1] + offsets[off] + offsets[off + 1]
              for off in offsets}
    aligned, offset = max(
        ((count, off) for off, count in pooled.items()),
        key=lambda co: (co[0], -abs(co[1]), co[1]))
    score = min(1.0, aligned / min(len(a.hashes), len(b.hashes)))
    return MatchScore(pair=pair, aligned_hits=aligned, offset_mode=offset, score=score)


def reference_find_peaks(samples: np.ndarray) -> PeakConstellation:
    """The ``maximum_filter``/``np.median`` formulation of ``find_peaks``, kept as its oracle.
    It reads the same module constants as ``find_peaks``, when it runs."""
    mag = stft_magnitude(samples)
    log_mag = 20.0 * np.log10(mag + 1e-10)
    size = fingerprint.NEIGHBORHOOD
    local_max = maximum_filter(log_mag, size=(size, size)) == log_mag
    floor = np.median(log_mag) + fingerprint.FLOOR_DB
    candidates = np.argwhere(local_max & (log_mag > floor))

    by_frame: dict[int, list[tuple[float, int]]] = {}
    for frame, fbin in candidates:
        by_frame.setdefault(int(frame), []).append((float(log_mag[frame, fbin]), int(fbin)))
    peaks = []
    for frame in sorted(by_frame):
        strongest = sorted(by_frame[frame], reverse=True)[:fingerprint.MAX_PEAKS_PER_FRAME]
        for _, fbin in sorted(strongest, key=lambda p: p[1]):
            peaks.append((frame, fbin))
    return PeakConstellation(peaks=np.array(peaks, dtype=np.int64).reshape(-1, 2))


def reference_landmark_hashes(peaks) -> list[tuple[int, int]]:
    """The pairing loop of ``landmark_hashes``, kept as its oracle. It reads the
    same module constants, when it runs. ``peaks`` are (frame, bin) rows."""
    peaks = np.asarray(peaks).reshape(-1, 2).tolist()
    pairs = []
    for i, (t1, f1) in enumerate(peaks):
        paired = 0
        for t2, f2 in peaks[i + 1:]:
            delta = t2 - t1
            if delta < fingerprint.MIN_DELTA:
                continue
            if delta > fingerprint.MAX_DELTA:
                break
            pairs.append((pack_key(f1, f2, delta), t1))
            paired += 1
            if paired >= fingerprint.FAN_OUT:
                break
    return pairs


@pytest.fixture(scope="module")
def clouds():
    rng = np.random.default_rng(42)
    return [tone_cloud(rng, duration=8.0) for _ in range(6)]


def test_fingerprint_deterministic(clouds):
    a = compute_fingerprint(clouds[0], owner="x")
    b = compute_fingerprint(clouds[0], owner="x")
    assert np.array_equal(a.hashes, b.hashes)


def test_silence_yields_no_hashes():
    fp = compute_fingerprint(np.zeros(SR * 5), owner="quiet")
    assert len(fp.hashes) == 0


def test_self_match_is_one(clouds):
    fp = compute_fingerprint(clouds[0], owner="x")
    result = match(fp, fp)
    assert result.score == 1.0
    assert result.offset_mode == 0


def test_match_symmetric_score(clouds):
    a = compute_fingerprint(clouds[0], owner="a")
    b = compute_fingerprint(clouds[1], owner="b")
    assert match(a, b).score == pytest.approx(match(b, a).score)


def test_unrelated_signals_score_low(clouds):
    fps = [compute_fingerprint(s, owner=f"c{i}") for i, s in enumerate(clouds)]
    for i in range(len(fps)):
        for j in range(i + 1, len(fps)):
            assert match(fps[i], fps[j]).score < 0.05


def test_delayed_scaled_copy_scores_high(clouds):
    original = clouds[0]
    copy = delayed_copy(original, delay_seconds=0.7, gain=0.4, sample_rate=SR)
    a = compute_fingerprint(original, owner="orig")
    b = compute_fingerprint(copy, owner="copy")
    result = match(a, b)
    assert result.score > 0.5
    # modal offset should reflect the planted delay in hops
    expected = round(0.7 * SR / 512)
    assert abs(result.offset_mode) in range(expected - 2, expected + 3)


def test_gain_invariance(clouds):
    loud = compute_fingerprint(clouds[2] * 4.0, owner="loud")
    soft = compute_fingerprint(clouds[2] * 0.05, owner="soft")
    assert match(loud, soft).score == 1.0


def test_hash_count_gain_independent(clouds):
    base = compute_fingerprint(clouds[3], owner="b")
    scaled = compute_fingerprint(clouds[3] * 0.1, owner="s")
    assert len(base.hashes) == len(scaled.hashes)


def test_shift_by_whole_hops_preserves_hashes(clouds):
    shifted = np.concatenate([np.zeros(HOP * 4), clouds[4]])
    a = compute_fingerprint(clouds[4], owner="a")
    b = compute_fingerprint(shifted, owner="b")
    result = match(a, b)
    assert result.score > 0.8
    assert abs(result.offset_mode) == 4


def test_pack_key_injective_on_ranges():
    seen = set()
    for f1 in (0, 17, 511):
        for f2 in (0, 250, 511):
            for dt in (1, 33, 64):
                key = pack_key(f1, f2, dt)
                assert key not in seen
                seen.add(key)
                assert key >> 17 == f1
                assert (key >> 7) & 0x3FF == f2
                assert key & 0x7F == dt


def test_match_all_pairs(clouds):
    fps = [compute_fingerprint(s, owner=f"c{i}") for i, s in enumerate(clouds[:3])]
    results = match_all(fps, 0.0)
    assert len(results) == 3
    assert {tuple(sorted(r.pair)) for r in results} == {
        ("c0", "c1"), ("c0", "c2"), ("c1", "c2")}


def write_clips(tmp_path, signals) -> Corpus:
    """A corpus of float WAV files, one per (id, samples), in the given order."""
    from scipy.io import wavfile
    excerpts = []
    for name, sig in signals:
        path = tmp_path / f"{name}.wav"
        wavfile.write(path, SR, sig.astype(np.float32))
        excerpts.append(Excerpt(id=name, label="g", artist="A", audio_path=str(path)))
    return Corpus(labels=("g",), excerpts=tuple(excerpts))


def planted_corpus(tmp_path, rng):
    """Six excerpts, two planted duplicate pairs."""
    signals = {}
    base0 = tone_cloud(rng, duration=8.0)
    base1 = tone_cloud(rng, duration=8.0)
    signals["g.000"] = base0
    signals["g.001"] = delayed_copy(base0, 0.5, 0.6, SR)
    signals["g.002"] = base1
    signals["g.003"] = delayed_copy(base1, 1.1, 0.3, SR)
    signals["g.004"] = tone_cloud(rng, duration=8.0)
    signals["g.005"] = tone_cloud(rng, duration=8.0)
    return write_clips(tmp_path, signals.items())


def test_find_exact_repetitions_recovers_planted_pairs(tmp_path):
    rng = np.random.default_rng(11)
    corpus = planted_corpus(tmp_path, rng)
    groups = find_exact_repetitions(fingerprint_corpus(corpus).values())
    assert [sorted(g) for g in groups] == [["g.000", "g.001"], ["g.002", "g.003"]]


def test_threshold_monotonicity(tmp_path):
    rng = np.random.default_rng(12)
    hashsets = fingerprint_corpus(planted_corpus(tmp_path, rng)).values()
    loose = find_exact_repetitions(hashsets, threshold=0.05)
    strict = find_exact_repetitions(hashsets, threshold=0.99)
    loose_members = {m for g in loose for m in g}
    strict_members = {m for g in strict for m in g}
    assert strict_members <= loose_members
    default = find_exact_repetitions(hashsets, threshold=DEFAULT_THRESHOLD)
    assert len(default) == 2


def test_fingerprint_corpus_is_the_same_on_two_threads(tmp_path):
    corpus = planted_corpus(tmp_path, np.random.default_rng(13))
    serial = fingerprint_corpus(corpus, workers=1)
    assert list(serial) == [ex.id for ex in corpus.excerpts]
    assert serial == fingerprint_corpus(corpus, workers=2)


# clip lengths in samples, 8 s at most; each thread's spectrogram buffer is
# reused for a shorter clip and grown for a longer one
CLIP_ORDERS = {"long_first": [SR * 8, SR * 3, FRAME_SIZE + 7 * HOP, SR * 5],
               "short_first": [FRAME_SIZE + 7 * HOP, SR * 3, SR * 8, SR * 5]}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("order", sorted(CLIP_ORDERS))
def test_fingerprint_corpus_with_one_buffer_equals_each_clip_alone(tmp_path, clouds,
                                                                 workers, order):
    signals = [(f"g.{i:03d}", clouds[i][:n]) for i, n in enumerate(CLIP_ORDERS[order])]
    corpus = write_clips(tmp_path, signals)
    got = fingerprint_corpus(corpus, workers=workers)
    assert list(got) == [name for name, _ in signals]
    for ex in corpus.excerpts:
        assert got[ex.id] == compute_fingerprint(load_audio(ex), owner=ex.id)


def test_find_exact_repetitions_names_an_excerpt_without_audio(tmp_path):
    corpus = planted_corpus(tmp_path, np.random.default_rng(14))
    corpus = dataclasses.replace(
        corpus, excerpts=corpus.excerpts + (Excerpt(id="g.006", label="g"),))
    with pytest.raises(IoError, match="'g.006'"):
        find_exact_repetitions(fingerprint_corpus(corpus).values())


def test_cache_round_trip(tmp_path, clouds):
    fps = {f"c{i}": compute_fingerprint(s, owner=f"c{i}")
           for i, s in enumerate(clouds[:3])}
    path = tmp_path / "prints.bin"
    write_cache(str(path), fps)
    loaded = read_cache(str(path))
    assert sorted(loaded) == sorted(fps)
    for eid in fps:
        assert np.array_equal(loaded[eid].hashes, fps[eid].hashes)
    with open(path, "rb") as fh:
        assert fh.read(5) == b"DFPK1"


def test_cache_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(ParseError):
        read_cache(str(path))


def test_empty_fingerprint_matches_nothing(clouds):
    silent = compute_fingerprint(np.zeros(SR * 5), owner="s")
    other = compute_fingerprint(clouds[5], owner="o")
    assert match(silent, other).score == 0.0
    assert match(silent, silent).score == 0.0


# mostly a few distinct values, so that windows and medians are full of ties;
# -0.0 becomes 0.0 (the two compare equal, so either may be the one kept)
tied_values = (st.sampled_from([-np.inf, -3.0, -1.0, 0.0, 0.5, 2.0, np.inf])
               | st.floats(allow_nan=False).map(lambda v: v + 0.0))


@settings(max_examples=200, deadline=None)
@given(values=arrays(np.float64, st.tuples(st.integers(1, 16), st.integers(1, 16)),
                     elements=tied_values),
       size=st.integers(1, 30))
@example(values=np.arange(12.0).reshape(1, 12), size=4)                 # one row, even
@example(values=np.arange(12.0).reshape(12, 1)[::-1].copy(), size=5)    # one column, odd
@example(values=np.array([[-np.inf, np.inf], [np.inf, -np.inf]]), size=1)
@example(values=np.arange(12.0).reshape(3, 4), size=31)                # window past both sides
def test_window_max_equals_maximum_filter(values, size):
    expected = maximum_filter(values, size=(size, size))
    got = fingerprint._window_max(values, size)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


# at size 15 the tiles are 4 x 4 and a window reaches 7 either way
PLATEAU = np.zeros((9, 10))
PLATEAU[3:5, 2:7] = 5.0                   # rows 3 and 4 straddle a tile border
HIDDEN = np.zeros((2, 12))
HIDDEN[0, 0], HIDDEN[0, 8] = 1.0, 2.0     # 2.0 is in 1.0's outer block, not its window


@st.composite
def tied_arrays(draw):
    """Up to 40 x 40 arrays of a few ``tied_values``, drawn from a seeded generator:
    drawing each of 1600 elements through hypothesis would take seconds per array."""
    shape = draw(st.tuples(st.integers(1, 40), st.integers(1, 40)))
    pool = np.array(draw(st.lists(tied_values, min_size=1, max_size=8)))
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).choice(pool, size=shape)


@settings(max_examples=300, deadline=None)
@given(values=tied_arrays(), size=st.integers(1, 30),
       floor=st.sampled_from([-np.inf, -1.0, 0.0, 1.0]) | tied_values)
@example(values=PLATEAU, size=15, floor=1.0)
@example(values=HIDDEN, size=15, floor=0.5)
@example(values=np.array([[3.0, -1.0], [2.0, 3.0], [np.inf, 0.0]]), size=15,
         floor=-np.inf)                   # smaller than one tile
@example(values=np.array([[1.0]]), size=30, floor=0.0)
def test_local_maxima_equal_maximum_filter(values, size, floor):
    expected = np.flatnonzero((maximum_filter(values, size=(size, size)) == values)
                              & (values > floor))
    got = fingerprint._local_maxima(values, size, floor)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("neighborhood", [0, -1])
def test_find_peaks_rejects_a_window_of_no_bins(monkeypatch, neighborhood):
    monkeypatch.setattr(fingerprint, "NEIGHBORHOOD", neighborhood)
    with pytest.raises(ValueError, match="window size"):
        find_peaks(np.random.default_rng(0).normal(size=SR))


def test_local_maxima_checks_a_window_its_tile_bounds_cannot_decide():
    # 1.0 tops its inner block, so it is not dropped, but not its outer
    # block, so it is not kept: only the direct comparison keeps it
    tiles = fingerprint._tile_max(HIDDEN, 4)
    assert fingerprint._window_max(tiles, 3)[0, 0] == 1.0
    assert fingerprint._window_max(tiles, 5)[0, 0] == 2.0
    assert fingerprint._local_maxima(HIDDEN, 15, 0.5).tolist() == [0, 8]


# tiny brackets, so that the sample is strided and the bracket often misses
MEDIAN_SETTINGS = {"default": None, "tiny_bracket": (16, 1)}


def _value_and_warnings(f, values):
    """``f(values)`` and the messages of the warnings it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        return f(values), [str(w.message) for w in caught]


@pytest.mark.parametrize("bracket", sorted(MEDIAN_SETTINGS))
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pool=st.lists(tied_values, min_size=1, max_size=6), size=st.integers(1, 3000),
       seed=st.integers(0, 2**32 - 1))
@example(pool=[-np.inf, np.inf], size=2, seed=0)
@example(pool=[-np.inf, np.inf], size=62, seed=93)  # the middle values are -inf and inf
@example(pool=[1.0], size=3001, seed=0)
def test_median_equals_np_median(monkeypatch, bracket, pool, size, seed):
    if MEDIAN_SETTINGS[bracket]:
        sample, margin = MEDIAN_SETTINGS[bracket]
        monkeypatch.setattr(fingerprint, "MEDIAN_SAMPLE", sample)
        monkeypatch.setattr(fingerprint, "MEDIAN_MARGIN", margin)
    # at most six distinct values: every array is full of ties
    values = np.random.default_rng(seed).choice(np.array(pool), size=size).reshape(-1, 1)
    # np.median warns of an overflow (huge values) or of inf - inf (-inf and inf in
    # the middle); _median must give the same warnings as well as the same value
    expected, expected_warnings = _value_and_warnings(np.median, values)
    got, got_warnings = _value_and_warnings(fingerprint._median, values)
    assert got_warnings == expected_warnings
    assert type(got) is type(expected)
    assert np.float64(got).tobytes() == np.float64(expected).tobytes()


@pytest.mark.parametrize("size", [40000, 40001])
def test_median_falls_back_when_the_bracket_misses(monkeypatch, size):
    # the strided sample (every other value) holds only the large values, so
    # the bracket lies above the median and np.median gives it
    values = np.arange(size, dtype=float)
    values[::2] += 1e6
    real_median, calls = np.median, []
    monkeypatch.setattr(fingerprint.np, "median", lambda a: calls.append(a.size) or real_median(a))
    got = fingerprint._median(values.reshape(-1, 1))
    assert calls == [size]
    assert got == real_median(values)


def peak_inputs():
    """(name, samples, neighborhood) cases on which find_peaks meets its oracle."""
    rng = np.random.default_rng(7)
    default = fingerprint.NEIGHBORHOOD
    clips = [tone_cloud(rng, duration=float(rng.uniform(2.0, 6.0))) for _ in range(4)]
    cases = [(f"cloud{i}", clip, default) for i, clip in enumerate(clips)]
    cases += [(f"copy{i}", delayed_copy(clip, float(rng.uniform(0.01, 1.0)),
                                        float(rng.uniform(0.2, 1.0)), SR), default)
              for i, clip in enumerate(clips)]
    cases += [
        ("silence", np.zeros(SR * 2), default),
        ("constant", np.full(SR * 2, 0.3), default),
        ("one_frame", clips[0][:FRAME_SIZE], default),
        ("even_neighborhood", clips[1], 8),
        ("neighborhood_1", clips[2], 1),
    ]
    for name, bad in (("nan", np.nan), ("inf", np.inf)):
        clip = clips[3].copy()
        clip[SR] = bad
        cases.append((f"{name}_sample", clip, default))
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name,samples,neighborhood", peak_inputs())
def test_find_peaks_equals_reference(monkeypatch, name, samples, neighborhood):
    monkeypatch.setattr(fingerprint, "NEIGHBORHOOD", neighborhood)
    got = find_peaks(samples)
    assert got.peaks.dtype == np.int64
    assert np.array_equal(got.peaks, reference_find_peaks(samples).peaks)
    if name in ("nan_sample", "silence"):
        assert got.peaks.shape == (0, 2)
    elif name.startswith(("cloud", "copy")):
        assert len(got.peaks) > 20


@pytest.mark.parametrize("k", [40, 200])
@pytest.mark.parametrize("tail", [0, HOP - 1])  # a partial hop makes no frame
def test_fingerprint_and_features_share_one_framing(clouds, k, tail):
    clip = clouds[0][:FRAME_SIZE + k * HOP + tail]
    assert len(frame_features(clip)) == k + 1
    frames = set(find_peaks(clip).peaks[:, 0].tolist())
    assert frames and frames <= set(range(k + 1))


def test_compute_fingerprint_equals_the_pairing_loop(clouds):
    for clip in clouds[:3]:
        peaks = find_peaks(clip).peaks
        expected = reference_landmark_hashes(peaks)
        assert len(expected) > 100
        assert compute_fingerprint(clip).hashes.tolist() == [list(p) for p in expected]


# frame-sorted peak lists: frames with gaps up to past MAX_DELTA, several peaks a frame
@st.composite
def peak_lists(draw):
    gaps = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 63, 64, 65, 200]), max_size=40))
    frames = np.cumsum([draw(st.integers(0, 5))] + gaps).tolist()
    return sorted({(f, draw(st.integers(0, 512))) for f in frames})


@pytest.mark.parametrize("min_delta", [0, 1, 2])
@pytest.mark.parametrize("fan_out", [1, 8])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(peaks=peak_lists())
@example(peaks=[])
@example(peaks=[(4, 9)])
@example(peaks=[(3, b) for b in range(12)])  # one frame only
@example(peaks=[(0, 1), (0, 2), (65, 3), (65, 4), (130, 5)])
@example(peaks=[(t, t % 7) for t in range(0, 300, 16)])
def test_landmark_hashes_equal_the_pairing_loop(monkeypatch, min_delta, fan_out, peaks):
    monkeypatch.setattr(fingerprint, "MIN_DELTA", min_delta)
    monkeypatch.setattr(fingerprint, "FAN_OUT", fan_out)
    peaks = np.array(peaks, dtype=np.int64).reshape(-1, 2)  # as find_peaks gives them
    got = fingerprint.landmark_hashes(peaks)
    assert got.dtype == np.int64 and got.shape == (len(got), 2)
    assert got.tolist() == [list(p) for p in reference_landmark_hashes(peaks)]


# keys at the packing edges (delta at min_delta/max_delta, extreme bins) and
# one either side of them, so probes cross delta and field boundaries
EDGE_KEYS = sorted({
    pack_key(f1, f2, dt) + step
    for f1 in (0, 1, 512)
    for f2 in (0, 1, 1023)
    for dt in (fingerprint.MIN_DELTA, fingerprint.MIN_DELTA + 1,
               fingerprint.MAX_DELTA - 1, fingerprint.MAX_DELTA)
    for step in (-1, 0, 1)})

# half the keys come from a 12-key pool so that hashes of a and b often collide
hash_lists = st.lists(
    st.tuples(st.sampled_from(EDGE_KEYS[:6] + EDGE_KEYS[-6:]) | st.sampled_from(EDGE_KEYS),
              st.integers(0, 40)),
    max_size=40)


def _hashset(owner, hashes, repeats):
    # repeated (key, frame) hashes are legal and each one counts
    return HashSet(owner=owner, hashes=tuple(hashes) + tuple(hashes[:repeats]))


K = pack_key(3, 7, 10)


def match_cases(test):
    """Run ``test`` on hypothesis draws and on hand-picked edge cases."""
    cases = [
        ([], [(K, 3)], 0, 0),
        ([(K, 3)], [], 0, 0),
        ([(K, 3)], [(K + 2, 3)], 0, 0),                      # keys two apart: no hit
        ([(K, 3), (K, 3)], [(K - 1, 0), (K + 1, 0)], 2, 1),  # keys one apart, repeats
        ([(K, 10)], [(K, 7), (K, 13)], 0, 0),                # +3 and -3 tie
        ([(K, 10), (K, 10)], [(K, 5), (K, 6), (K, 14), (K, 15)], 0, 0),  # pooled tie +-4.5
        # offset 0's pooled count takes in repeated runs at -1 and +1
        ([(K, 10), (K, 30)], [(K, 11), (K, 11), (K, 10), (K, 9), (K, 9), (K, 29)], 1, 0),
        # probes of the smallest and largest cacheable keys: k - 1 < 0, k + 1 = 2**32
        ([(0, 0)], [(1, 2), (0, 0)], 0, 0),
        ([(1, 5)], [(0, 5), (2, 9), (3, 5)], 1, 0),
        ([(2**32 - 1, 3)], [(2**32 - 2, 3), (2**32 - 1, 4)], 0, 1),
        ([(0, 1), (2**32 - 1, 1)], [(2**32 - 1, 0), (1, 0), (2**32 - 3, 1)], 1, 1),
    ]
    for case in reversed(cases):
        test = example(*case)(test)
    return settings(max_examples=400, deadline=None)(
        given(hash_lists, hash_lists, st.integers(0, 5), st.integers(0, 5))(test))


def check_match(a_hashes, b_hashes, a_repeats, b_repeats):
    a = _hashset("a", a_hashes, a_repeats)
    b = _hashset("b", b_hashes, b_repeats)
    assert match(a, b) == reference_match(a, b)
    assert match(b, a) == reference_match(b, a)


@match_cases
def test_match_equals_reference(a_hashes, b_hashes, a_repeats, b_repeats):
    check_match(a_hashes, b_hashes, a_repeats, b_repeats)


@match_cases
def test_match_equals_reference_with_a_one_bit_probe_table(a_hashes, b_hashes,
                                                            a_repeats, b_repeats):
    # two slots: nearly every probe is a false positive, and none may change a score
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fingerprint, "PROBE_BITS", 1)
        check_match(a_hashes, b_hashes, a_repeats, b_repeats)


@settings(max_examples=200, deadline=None)
@given(hash_lists, hash_lists, st.integers(0, 5), st.integers(0, 5), st.data())
def test_match_ignores_the_order_of_hash_rows(a_hashes, b_hashes, a_repeats, b_repeats, data):
    # a set's hashes in any row order, repeats included, score the same: so the
    # order of equal keys after HashSet's key sort cannot matter
    a = _hashset("a", a_hashes, a_repeats)
    b = _hashset("b", b_hashes, b_repeats)
    shuffled_a, shuffled_b = (
        HashSet(owner=hs.owner, hashes=data.draw(st.permutations(hs.hashes.tolist())))
        for hs in (a, b))
    assert match(shuffled_a, shuffled_b) == match(a, b) == reference_match(a, b)
    assert match(shuffled_b, shuffled_a) == match(b, a) == reference_match(b, a)


def test_hashset_takes_pairs_only():
    assert HashSet(owner="x", hashes=()).hashes.shape == (0, 2)
    with pytest.raises(ValueError, match="'x'"):
        HashSet(owner="x", hashes=((1, 2, 3),))


def test_probe_table_marks_every_key_and_its_neighbours():
    keys = np.array([0, 1, K, 2**32 - 1], dtype=np.int64)
    hs = HashSet(owner="x", hashes=tuple((k, 0) for k in keys.tolist()))
    marked = np.unpackbits(hs.probe_table, bitorder="little")
    slots = fingerprint._probe_slots(np.concatenate([keys - 1, keys, keys + 1]))
    assert marked[slots].all()
    assert marked.sum() <= 12 and len(marked) == 2**fingerprint.PROBE_BITS


def test_match_all_equals_pairwise_reference(clouds):
    rng = np.random.default_rng(5)
    signals = list(clouds) + [
        delayed_copy(clouds[0], float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.3, 1.0)), SR),
        delayed_copy(clouds[0], float(rng.uniform(0.1, 1.5)), float(rng.uniform(0.3, 1.0)), SR),
        delayed_copy(clouds[3], 512.5 / SR, 0.8, SR),
    ]
    fps = [compute_fingerprint(s, owner=f"c{i}") for i, s in enumerate(signals)]
    expected = [reference_match(fps[i], fps[j])
                for i in range(len(fps)) for j in range(i + 1, len(fps))]
    assert match_all(fps, 0.0) == expected
    assert sum(ms.score >= DEFAULT_THRESHOLD for ms in expected) >= 3
    assert match_all(fps, DEFAULT_THRESHOLD) == [
        ms for ms in expected if ms.score >= DEFAULT_THRESHOLD]


def test_match_all_scores_pairs_in_owner_order_whatever_the_input_order(clouds):
    signals = list(clouds) + [delayed_copy(clouds[2], 0.7, 0.6, SR),
                              delayed_copy(clouds[4], 1.3, 0.9, SR)]
    fps = [compute_fingerprint(s, owner=f"c{i}") for i, s in enumerate(signals)]
    in_order = match_all(fps, 0.0)
    assert [ms.pair for ms in in_order] == [(a.owner, b.owner)
                                            for i, a in enumerate(fps) for b in fps[i + 1:]]
    assert any(ms.offset_mode != 0 for ms in in_order if ms.score >= DEFAULT_THRESHOLD)
    rng = np.random.default_rng(3)
    for _ in range(3):
        shuffled = [fps[i] for i in rng.permutation(len(fps))]
        assert match_all(shuffled, 0.0) == in_order
        assert match_all(reversed(shuffled), DEFAULT_THRESHOLD) == [
            ms for ms in in_order if ms.score >= DEFAULT_THRESHOLD]


def test_connected_groups():
    edges = [("e", "d"), ("c", "b"), ("a", "b"), ("f", "f"), ("x", "c")]
    assert connected_groups(edges) == [("a", "b", "c", "x"), ("d", "e")]
    assert connected_groups([]) == []


HAND_BUILT = {
    "b.01": HashSet(owner="b.01", hashes=((pack_key(512, 1023, 64), 0), (1, 2**32 - 1),
                                          (1, 2**32 - 1), (0, 7))),
    "a": HashSet(owner="a", hashes=()),
    "\u00e9": HashSet(owner="\u00e9", hashes=((pack_key(0, 0, 1), 12),)),
}


def test_write_cache_matches_struct_reference(tmp_path):
    path = tmp_path / "prints.bin"
    write_cache(path, HAND_BUILT)
    expected = b"DFPK1" + struct.pack("<I", len(HAND_BUILT))
    for eid in sorted(HAND_BUILT):
        encoded = eid.encode("utf-8")
        expected += struct.pack("<H", len(encoded)) + encoded
        expected += struct.pack("<I", len(HAND_BUILT[eid].hashes))
        for key, frame in HAND_BUILT[eid].hashes.tolist():
            expected += struct.pack("<II", key, frame)
    assert path.read_bytes() == expected
    loaded = read_cache(path)
    assert loaded == HAND_BUILT
    for eid, hs in loaded.items():
        assert hs.hashes.dtype == np.int64
        assert hs.hashes.shape == (len(HAND_BUILT[eid].hashes), 2)
        assert not hs.hashes.flags.writeable


@pytest.mark.parametrize("cut", [1, 4, 9, 20])
def test_truncated_cache_is_a_parse_error(tmp_path, cut):
    path = tmp_path / "prints.bin"
    write_cache(path, HAND_BUILT)
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(ParseError, match="truncated"):
        read_cache(path)


def test_cache_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "prints.bin"
    write_cache(path, HAND_BUILT)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ParseError, match="after the last record"):
        read_cache(path)


def test_cache_io_errors_name_the_file(tmp_path):
    path = tmp_path / "missing" / "prints.bin"
    with pytest.raises(IoError, match="cannot write fingerprint cache .*prints.bin"):
        write_cache(path, HAND_BUILT)
    with pytest.raises(IoError, match="cannot read fingerprint cache"):
        read_cache(tmp_path)


def test_cached_fingerprints_returns_only_the_corpus_excerpts(tmp_path):
    """A cache may hold ids the metadata lacks; they are left out, and the
    corpus's sets come in corpus order."""
    path = tmp_path / "prints.bin"
    write_cache(path, HAND_BUILT)
    corpus = Corpus(labels=("x",), excerpts=(Excerpt(id="b.01", label="x"),
                                             Excerpt(id="a", label="x")))
    hashsets = cached_fingerprints(corpus, path)
    assert list(hashsets) == ["b.01", "a"]
    assert all(hashsets[eid].hashes.tobytes() == read_cache(path)[eid].hashes.tobytes()
               for eid in hashsets)


def test_find_exact_repetitions_groups_sets_by_owner(clouds):
    copy = delayed_copy(clouds[1], 0.3, 0.5, SR)
    hashsets = [compute_fingerprint(clouds[2], owner="z"), compute_fingerprint(copy, owner="x"),
                compute_fingerprint(clouds[1], owner="y")]
    assert find_exact_repetitions(hashsets) == [("x", "y")]


# (id, hashes): a key or frame outside u4, or an id too long for its <H length
@pytest.mark.parametrize("bad", [("bad.007", ((1, 2), pair))
                                 for pair in [(2**32, 0), (-1, 0), (0, 2**32), (7, -1)]]
                         + [("a" * 70000, ((1, 2),))])
def test_write_cache_rejects_values_outside_u4_and_keeps_the_old_file(tmp_path, bad):
    eid, hashes = bad
    path = tmp_path / "prints.bin"
    write_cache(path, HAND_BUILT)
    before = path.read_bytes()
    hashsets = {**HAND_BUILT, eid: HashSet(owner=eid, hashes=hashes)}
    with pytest.raises(ValueError, match=re.escape(f"excerpt {eid!r}")):
        write_cache(path, hashsets)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match=re.escape(f"excerpt {eid!r}")):
        write_cache(tmp_path / "new.bin", hashsets)
    assert not (tmp_path / "new.bin").exists()


def test_write_cache_accepts_both_u4_bounds(tmp_path):
    path = tmp_path / "prints.bin"
    edge = {"e": HashSet(owner="e", hashes=((0, 2**32 - 1), (2**32 - 1, 0)))}
    write_cache(path, edge)
    assert read_cache(path) == edge


# One fuzz suite for both files in corpus.write_records' layout: the
# fingerprint cache and the feature companion, read as bare records.
def _fingerprint_format(tmp_path):
    """(header, reader, writer, bytes of a valid file) of the fingerprint cache."""
    path = tmp_path / "valid.bin"
    write_cache(path, HAND_BUILT)
    return CACHE_MAGIC, read_cache, write_cache, path.read_bytes()


COMPANION_FEATURES = {"b.01": np.arange(64.0).reshape(2, 32), "\u00e9": np.full((1, 32), -0.0)}


def _companion_format(tmp_path):
    """(header, reader, writer, bytes of a valid file) of a feature companion."""
    path = tmp_path / "valid.csv"
    write_feature_cache(path, COMPANION_FEATURES)
    header = COMPANION_MAGIC + hashlib.sha256(path.read_bytes()).digest()
    return (header,
            lambda p: read_records(p, "feature companion", header, "<f8", N_TEXTURE_DIMS),
            lambda p, arrays: write_records(p, "feature companion", header, arrays, "<f8"),
            companion_path(path).read_bytes())


FORMATS = pytest.mark.parametrize("fmt", [_fingerprint_format, _companion_format],
                                  ids=["fingerprint", "companion"])


def _mutate(data, kind, at, blob):
    at %= len(data) + 1
    if kind == "truncate":
        return data[:at]
    if kind == "extend":
        return data + blob
    if kind == "insert":
        return data[:at] + blob + data[at:]
    flip = blob[0] if blob and blob[0] else 0xFF
    at = min(at, len(data) - 1)
    return data[:at] + bytes([data[at] ^ flip]) + data[at + 1:]


def _check_read(path, data, read, write):
    """Only ParseError may escape ``read``; an accepted file must be rewritten as ``data``."""
    path.write_bytes(data)
    try:
        loaded = read(path)
    except ParseError:
        return
    out = path.with_suffix(".rewrite")
    write(out, loaded)
    assert out.read_bytes() == data


# each example rewrites the same files, so sharing tmp_path is safe
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])
mutations = (st.sampled_from(["truncate", "extend", "insert", "flip"]), st.integers(0, 1000),
             st.binary(min_size=1, max_size=12))


@FORMATS
@FUZZ
@given(prefixed=st.booleans(), tail=st.binary(max_size=200))
@example(prefixed=True, tail=b"\x02\x00\x00\x00\x01\x00b\x00\x00\x00\x00"
         b"\x01\x00a\x00\x00\x00\x00")                                         # b, a
@example(prefixed=True, tail=b"\x02\x00\x00\x00\x01\x00a\x00\x00\x00\x00"
         b"\x01\x00a\x00\x00\x00\x00")                                         # a, a
@example(prefixed=True, tail=b"\x01\x00\x00\x00\x01\x00\xff\x00\x00\x00\x00")  # id not UTF-8
@example(prefixed=True, tail=b"\xff\xff\xff\xff")                     # count far past the end
def test_read_cache_fuzz_raw_bytes(tmp_path, fmt, prefixed, tail):
    header, read, write, _ = fmt(tmp_path)
    _check_read(tmp_path / "fuzz.bin", header + tail if prefixed else tail, read, write)


@FORMATS
@FUZZ
@given(*mutations)
def test_read_cache_fuzz_mutated_valid_cache(tmp_path, fmt, kind, at, blob):
    _, read, write, valid = fmt(tmp_path)
    _check_read(tmp_path / "fuzz.bin", _mutate(valid, kind, at, blob), read, write)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(*mutations)
def test_read_feature_cache_never_raises_on_a_mutated_companion(tmp_path, kind, at, blob):
    _, _, _, valid = _companion_format(tmp_path)
    companion_path(tmp_path / "valid.csv").write_bytes(_mutate(valid, kind, at, blob))
    loaded = read_feature_cache(tmp_path / "valid.csv")
    assert all(v.dtype == np.float64 and v.ndim == 2 and v.shape[1] == N_TEXTURE_DIMS
               and len(v) for v in loaded.values())
