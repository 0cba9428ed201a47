import struct
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from corpusaudit import fingerprint
from corpusaudit.errors import IoError, ParseError
from corpusaudit.fingerprint import (
    DEFAULT_PARAMS,
    DEFAULT_THRESHOLD,
    FingerprintParams,
    HashSet,
    MatchScore,
    compute_fingerprint,
    connected_groups,
    find_exact_repetitions,
    match,
    match_all,
    pack_key,
    read_cache,
    write_cache,
)
from corpusaudit.corpus import Corpus, Excerpt
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
    params = FingerprintParams()
    shifted = np.concatenate([np.zeros(params.hop * 4), clouds[4]])
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
    results = match_all(fps)
    assert len(results) == 3
    assert {tuple(sorted(r.pair)) for r in results} == {
        ("c0", "c1"), ("c0", "c2"), ("c1", "c2")}


def planted_corpus(tmp_path, rng):
    """Six excerpts, two planted duplicate pairs."""
    from scipy.io import wavfile
    signals = {}
    base0 = tone_cloud(rng, duration=8.0)
    base1 = tone_cloud(rng, duration=8.0)
    signals["g.000"] = base0
    signals["g.001"] = delayed_copy(base0, 0.5, 0.6, SR)
    signals["g.002"] = base1
    signals["g.003"] = delayed_copy(base1, 1.1, 0.3, SR)
    signals["g.004"] = tone_cloud(rng, duration=8.0)
    signals["g.005"] = tone_cloud(rng, duration=8.0)
    excerpts = []
    for name, sig in signals.items():
        path = tmp_path / f"{name}.wav"
        wavfile.write(path, SR, sig.astype(np.float32))
        excerpts.append(Excerpt(id=name, label="g", artist="A", audio_path=str(path)))
    return Corpus(labels=("g",), excerpts=tuple(excerpts))


def test_find_exact_repetitions_recovers_planted_pairs(tmp_path):
    rng = np.random.default_rng(11)
    corpus = planted_corpus(tmp_path, rng)
    groups = find_exact_repetitions(corpus)
    assert [sorted(g) for g in groups] == [["g.000", "g.001"], ["g.002", "g.003"]]


def test_threshold_monotonicity(tmp_path):
    rng = np.random.default_rng(12)
    corpus = planted_corpus(tmp_path, rng)
    loose = find_exact_repetitions(corpus, threshold=0.05)
    strict = find_exact_repetitions(corpus, threshold=0.99)
    loose_members = {m for g in loose for m in g}
    strict_members = {m for g in strict for m in g}
    assert strict_members <= loose_members
    default = find_exact_repetitions(corpus, threshold=DEFAULT_THRESHOLD)
    assert len(default) == 2


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


# keys at the packing edges (delta at min_delta/max_delta, extreme bins) and
# one either side of them, so probes cross delta and field boundaries
EDGE_KEYS = sorted({
    pack_key(f1, f2, dt) + step
    for f1 in (0, 1, 512)
    for f2 in (0, 1, 1023)
    for dt in (DEFAULT_PARAMS.min_delta, DEFAULT_PARAMS.min_delta + 1,
               DEFAULT_PARAMS.max_delta - 1, DEFAULT_PARAMS.max_delta)
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
    assert match_all(fps) == expected
    assert sum(ms.score >= DEFAULT_THRESHOLD for ms in expected) >= 3
    assert match_all(fps, DEFAULT_THRESHOLD) == [
        ms for ms in expected if ms.score >= DEFAULT_THRESHOLD]


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


def test_find_exact_repetitions_groups_supplied_sets_by_key(clouds):
    copy = delayed_copy(clouds[1], 0.3, 0.5, SR)
    hashsets = {"x": compute_fingerprint(clouds[1]), "y": compute_fingerprint(copy),
                "z": compute_fingerprint(clouds[2])}
    assert find_exact_repetitions(None, hashsets=hashsets) == [("x", "y")]


@pytest.mark.parametrize("bad", [(2**32, 0), (-1, 0), (0, 2**32), (7, -1)])
def test_write_cache_rejects_values_outside_u4_and_keeps_the_old_file(tmp_path, bad):
    path = tmp_path / "prints.bin"
    write_cache(path, HAND_BUILT)
    before = path.read_bytes()
    hashsets = {**HAND_BUILT, "bad.007": HashSet(owner="bad.007", hashes=((1, 2), bad))}
    with pytest.raises(ValueError, match="excerpt 'bad.007'"):
        write_cache(path, hashsets)
    assert path.read_bytes() == before
    with pytest.raises(ValueError, match="excerpt 'bad.007'"):
        write_cache(tmp_path / "new.bin", hashsets)
    assert not (tmp_path / "new.bin").exists()


def test_write_cache_accepts_both_u4_bounds(tmp_path):
    path = tmp_path / "prints.bin"
    edge = {"e": HashSet(owner="e", hashes=((0, 2**32 - 1), (2**32 - 1, 0)))}
    write_cache(path, edge)
    assert read_cache(path) == edge


def _valid_cache_bytes(tmp_path):
    path = tmp_path / "valid.bin"
    write_cache(path, HAND_BUILT)
    return path.read_bytes()


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


def _check_read_cache(path, data):
    """Only ParseError may escape; an accepted cache must be rewritten as ``data``."""
    path.write_bytes(data)
    try:
        loaded = read_cache(path)
    except ParseError:
        return
    out = path.with_suffix(".rewrite")
    write_cache(out, loaded)
    assert out.read_bytes() == data


# each example rewrites the same two files, so sharing tmp_path is safe
FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@FUZZ
@given(st.binary(max_size=200) | st.binary(max_size=200).map(lambda b: b"DFPK1" + b))
@example(b"DFPK1\x02\x00\x00\x00\x01\x00b\x00\x00\x00\x00\x01\x00a\x00\x00\x00\x00")  # b, a
@example(b"DFPK1\x02\x00\x00\x00\x01\x00a\x00\x00\x00\x00\x01\x00a\x00\x00\x00\x00")  # a, a
@example(b"DFPK1\x01\x00\x00\x00\x01\x00\xff\x00\x00\x00\x00")  # id not UTF-8
@example(b"DFPK1\xff\xff\xff\xff")                                # count far past the end
def test_read_cache_fuzz_raw_bytes(tmp_path, data):
    _check_read_cache(tmp_path / "fuzz.bin", data)


@FUZZ
@given(st.sampled_from(["truncate", "extend", "insert", "flip"]), st.integers(0, 200),
       st.binary(min_size=1, max_size=12))
def test_read_cache_fuzz_mutated_valid_cache(tmp_path, kind, at, blob):
    data = _mutate(_valid_cache_bytes(tmp_path), kind, at, blob)
    _check_read_cache(tmp_path / "fuzz.bin", data)
