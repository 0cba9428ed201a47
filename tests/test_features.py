import csv
import hashlib
import io
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.fft import dct, rfft

from corpusaudit import features
from corpusaudit.errors import IncompleteFeaturesError, IoError, ParseError, TooShortError
from corpusaudit.features import (
    FRAME_SIZE,
    HOP,
    MEL_BANK,
    N_TEXTURE_DIMS,
    NormalizationMap,
    apply_normalization,
    companion_path,
    excerpt_features,
    fit_normalization,
    frame_features,
    frame_signal,
    mel_energies,
    mel_filterbank,
    read_feature_cache,
    stft_magnitude,
    texture_vectors,
    write_feature_cache,
)
from corpusaudit.synth import tone_cloud

SR = 22050


def test_frame_count_formula():
    n = 661500
    frames = frame_signal(np.zeros(n))
    assert frames.shape == ((n - FRAME_SIZE) // HOP + 1, FRAME_SIZE)
    assert frames.shape[0] == 1290


def test_frame_signal_too_short():
    with pytest.raises(TooShortError):
        frame_signal(np.zeros(FRAME_SIZE - 1))


def one_shot_stft_magnitude(samples):
    """``stft_magnitude`` in one call over all frames, kept as its oracle."""
    frames = frame_signal(samples)
    return np.abs(rfft(frames * np.hanning(features.FRAME_SIZE), axis=1))


# stft_magnitude reads the framing when it runs, so other framings are set here
@pytest.mark.parametrize("frame_size,hop", [(FRAME_SIZE, HOP), (1000, 333), (2048, 512)])
@pytest.mark.parametrize("n_frames", [1, 15, 16, 17, 33])  # around the 16-frame block
def test_stft_magnitude_equals_the_one_shot_transform(monkeypatch, frame_size, hop, n_frames):
    monkeypatch.setattr(features, "FRAME_SIZE", frame_size)
    monkeypatch.setattr(features, "HOP", hop)
    rng = np.random.default_rng(n_frames * frame_size)
    samples = rng.normal(size=frame_size + (n_frames - 1) * hop + hop // 2)
    got = stft_magnitude(samples)
    assert got.shape == (n_frames, frame_size // 2 + 1)
    assert got.tobytes() == one_shot_stft_magnitude(samples).tobytes()


def test_stft_magnitude_of_an_infinity_raises_no_warning():
    """An infinite sample at a frame's start meets the window's zero, and
    numpy's rfft warns on an infinity; stft_magnitude raises neither warning
    and still equals the oracle."""
    samples = np.random.default_rng(4).normal(size=FRAME_SIZE + 20 * HOP)
    samples[[HOP, 7 * HOP + 100]] = [np.inf, -np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stft_magnitude(samples)
    with np.errstate(invalid="ignore"):
        expected = one_shot_stft_magnitude(samples)
    assert np.isinf(got).any() and np.isnan(got).any()
    assert np.array_equal(got, expected, equal_nan=True)


def test_stft_magnitude_into_a_buffer_is_a_view_of_it():
    samples = np.random.default_rng(3).normal(size=FRAME_SIZE + 40 * HOP)
    fresh = stft_magnitude(samples)
    for spare in (0, 1, 1000):  # a buffer of exactly the size, and larger ones
        buffer = np.full(fresh.size + spare, np.nan)
        got = stft_magnitude(samples, out=buffer)
        assert np.shares_memory(got, buffer)
        assert got.shape == fresh.shape and got.tobytes() == fresh.tobytes()


def test_stft_magnitude_refuses_a_buffer_too_small():
    samples = np.zeros(FRAME_SIZE + 3 * HOP)
    with pytest.raises(ValueError):
        stft_magnitude(samples, out=np.empty(4 * (FRAME_SIZE // 2 + 1) - 1))


def product_zero_crossings(samples):
    """Zero crossings from the products of each frame's adjacent samples, frame
    by frame, kept as the oracle of ``zero_crossings``."""
    frames = frame_signal(samples)
    return np.sum(frames[:, 1:] * frames[:, :-1] < 0, axis=1).astype(float)


def signed_zeros_signal(n_frames, remainder):
    """Noise with runs of exact zeros and -0.0, and tiny values whose products
    underflow to a signed zero, so that sign changes and negative products differ."""
    rng = np.random.default_rng(n_frames * HOP + remainder)
    samples = rng.normal(size=FRAME_SIZE + (n_frames - 1) * HOP + remainder)
    samples[::7] = 0.0
    samples[3::11] = -0.0
    samples[HOP - 2:HOP + 3] = [1e-200, -1e-200, 0.0, -0.0, 1e-200]  # across the first half's end
    samples[-3:] = [-0.0, 0.0, -1.0]
    return samples


FRAME_COUNTS = [1, 2, 129, 130, 131, 260]  # around one and two texture windows
REMAINDERS = [0, 1, HOP - 1]  # samples past the last frame


@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
@pytest.mark.parametrize("remainder", REMAINDERS)
def test_zero_crossings_equal_the_frame_products(n_frames, remainder):
    samples = signed_zeros_signal(n_frames, remainder)
    expected = product_zero_crossings(samples)
    assert features.zero_crossings(samples, n_frames).tobytes() == expected.tobytes()
    assert frame_features(samples)[:, 13].tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
@pytest.mark.parametrize("remainder", REMAINDERS)
def test_excerpt_features_equal_texture_vectors_of_every_frame(n_frames, remainder):
    samples = signed_zeros_signal(n_frames, remainder)
    if n_frames < features.TEXTURE_FRAMES:
        with pytest.raises(TooShortError) as full:
            texture_vectors(frame_features(samples))
        with pytest.raises(TooShortError, match=re.escape(str(full.value))):
            excerpt_features(samples)
    else:
        expected = texture_vectors(frame_features(samples))
        assert excerpt_features(samples).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_frames", [1, 129])
def test_excerpt_features_computes_no_frame_of_a_clip_too_short(monkeypatch, n_frames):
    def no_frames(samples):
        raise AssertionError("frame_features called")

    monkeypatch.setattr(features, "frame_features", no_frames)
    with pytest.raises(TooShortError, match=f"^need at least 130 frames, got {n_frames}$"):
        excerpt_features(signed_zeros_signal(n_frames, HOP - 1))


def test_frame_features_shape_and_determinism():
    rng = np.random.default_rng(0)
    x = rng.normal(size=SR * 2)
    a = frame_features(x)
    b = frame_features(x)
    assert a.shape[1] == 16
    assert np.array_equal(a, b)


def test_zcr_constant_signal():
    feats = frame_features(np.full(SR, 0.5))
    assert np.all(feats[:, 13] == 0.0)


def test_zcr_alternating_signal():
    x = np.tile([0.5, -0.5], SR)
    feats = frame_features(x)
    # every adjacent sample pair crosses zero: 1023 sign changes per frame
    assert np.all(feats[:, 13] == FRAME_SIZE - 1)


def test_centroid_pure_tone():
    t = np.arange(SR) / SR
    x = np.sin(2 * np.pi * 1000.0 * t)
    feats = frame_features(x)
    bin_width = SR / FRAME_SIZE
    assert np.all(np.abs(feats[:, 14] - 1000.0) < bin_width)


def test_centroid_and_rolloff_within_nyquist():
    rng = np.random.default_rng(1)
    feats = frame_features(rng.normal(size=SR))
    assert np.all(feats[:, 14] >= 0) and np.all(feats[:, 14] <= SR / 2)
    assert np.all(feats[:, 15] >= 0) and np.all(feats[:, 15] <= SR / 2)


def test_rolloff_is_minimal_85_percent_bin():
    rng = np.random.default_rng(2)
    x = rng.normal(size=SR)
    mag = stft_magnitude(x)
    feats = frame_features(x)
    bin_freqs = np.arange(mag.shape[1]) * SR / FRAME_SIZE
    for i in range(0, mag.shape[0], 7):
        total = mag[i].sum()
        r = feats[i, 15]
        below = mag[i, bin_freqs <= r].sum()
        assert below >= 0.85 * total
        prev_bins = bin_freqs < r
        if prev_bins.any():
            assert mag[i, prev_bins].sum() < 0.85 * total


def test_mfcc_amplitude_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=SR)
    a = frame_features(x)
    b = frame_features(2.0 * x)
    # doubling amplitude offsets only the DC coefficient
    assert not np.allclose(a[:, 0], b[:, 0])
    assert np.allclose(a[:, 1:13], b[:, 1:13], atol=1e-6)


def log_mel_rows(samples):
    """The rows ``frame_features`` hands to the DCT: floored log mel energies."""
    return np.log(np.maximum(mel_energies(stft_magnitude(samples)), features.LOG_FLOOR))


def random_rows():
    """Seeded normal rows at scales from near underflow to near overflow."""
    rng = np.random.default_rng(11)
    return np.concatenate([rng.normal(0.0, scale, (500, features.N_MEL_FILTERS))
                           for scale in (1e-300, 1e-8, 1e-3, 1.0, 30.0, 1e5, 1e300)])


def edge_rows():
    """Every value the floor gives, all zeros, uniform values as far as a log reaches,
    and one nonzero entry in each position."""
    n = features.N_MEL_FILTERS
    rng = np.random.default_rng(12)
    return np.concatenate([np.full((3, n), np.log(features.LOG_FLOOR)), np.zeros((3, n)),
                           -np.zeros((1, n)), rng.uniform(-700.0, 700.0, (2000, n)),
                           np.eye(n) * np.log(features.LOG_FLOOR), np.eye(n)])


def tone_cloud_log_mel_rows():
    """Log mel rows of tone clouds of 30, 12.5 and 3.1 s."""
    rng = np.random.default_rng(13)
    return np.concatenate([log_mel_rows(tone_cloud(rng, duration=seconds))
                           for seconds in (30.0, 12.5, 3.1)])


@pytest.mark.parametrize("rows", [tone_cloud_log_mel_rows, random_rows, edge_rows])
def test_dct_equals_the_scipy_dct_bit_for_bit(rows):
    """The MFCCs' numpy DCT gives the bits of the scipy DCT it replaced, so the
    feature CSVs it writes are byte-identical to those scipy's gave."""
    x = rows()
    expected = dct(x, type=2, norm="ortho", axis=1)
    got = features._dct_ortho(x)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_mfccs_are_the_dct_of_the_log_mel_rows():
    samples = tone_cloud(np.random.default_rng(14), duration=3.0)
    expected = dct(log_mel_rows(samples), type=2, norm="ortho", axis=1)[:, :13]
    assert frame_features(samples)[:, :13].tobytes() == expected.tobytes()


def test_mel_filterbank_shape_and_area():
    fb = mel_filterbank()
    assert fb.shape == (40, FRAME_SIZE // 2 + 1)
    bin_width = SR / FRAME_SIZE
    # unit area in frequency: sum of weights x bin width close to 1
    areas = fb.sum(axis=1) * bin_width
    assert np.all(np.abs(areas - 1.0) < 0.1)


def test_mel_filterbank_band_edges():
    fb = mel_filterbank()
    bin_freqs = np.arange(FRAME_SIZE // 2 + 1) * SR / FRAME_SIZE
    active = fb.sum(axis=0) > 0
    assert bin_freqs[active].min() > 100.0
    assert bin_freqs[active].max() < 7000.0


def test_mel_energies_equal_the_matrix_product():
    mag = stft_magnitude(np.random.default_rng(5).normal(size=SR))
    # each energy sums at most 41 nonnegative terms in another order than the
    # product does, so the two differ by at most about 2 * 41 epsilons (1.8e-14)
    np.testing.assert_allclose(mel_energies(mag), mag @ MEL_BANK.T, rtol=1e-13, atol=0)


def test_every_mel_filter_has_weight_at_the_sample_rate():
    # mel_energies sums each filter's nonzero weights with np.add.reduceat, which
    # would give a filter with none its next filter's first term, and no error;
    # at 8000 Hz the top filters lie above the Nyquist frequency and have none
    assert np.array_equal(MEL_BANK, mel_filterbank())
    assert (MEL_BANK != 0).any(axis=1).all()
    assert not MEL_BANK.flags.writeable


def test_texture_vectors_shapes():
    rng = np.random.default_rng(4)
    frames = rng.normal(size=(1290, 16))
    tv = texture_vectors(frames)
    assert tv.shape == (9, 32)


def test_texture_vectors_identical_frames_zero_variance():
    frames = np.tile(np.arange(16.0), (130, 1))
    tv = texture_vectors(frames)
    assert np.allclose(tv[0, :16], np.arange(16.0))
    assert np.allclose(tv[0, 16:], 0.0)


def test_texture_vectors_two_pass_oracle():
    rng = np.random.default_rng(5)
    frames = rng.normal(size=(260, 16))
    tv = texture_vectors(frames)
    for b in range(2):
        block = frames[b * 130:(b + 1) * 130]
        mean = block.sum(axis=0) / 130
        var = ((block - mean) ** 2).sum(axis=0) / 130
        assert np.allclose(tv[b, :16], mean, rtol=1e-9)
        assert np.allclose(tv[b, 16:], var, rtol=1e-9)


def test_texture_vectors_remainder_discarded():
    rng = np.random.default_rng(6)
    frames = rng.normal(size=(300, 16))
    assert texture_vectors(frames).shape == (2, 32)
    assert np.array_equal(texture_vectors(frames), texture_vectors(frames[:260]))


def test_texture_vectors_too_few_frames():
    with pytest.raises(TooShortError):
        texture_vectors(np.zeros((129, 16)))


def test_excerpt_features_full_pipeline():
    rng = np.random.default_rng(7)
    x = rng.normal(size=661500)
    tv = excerpt_features(x)
    assert tv.shape == (9, 32)
    assert np.all(tv[:, 16:] >= 0)


def test_normalization_simple_map():
    nmap = fit_normalization(np.array([[0.0, 5.0], [2.0, 7.0]]))
    out = apply_normalization(nmap, np.array([[1.0, 6.0], [3.0, 5.0]]))
    assert np.allclose(out, [[0.5, 0.5], [1.5, 0.0]])


def test_normalization_training_set_in_unit_box():
    rng = np.random.default_rng(8)
    train = rng.normal(size=(50, 32))
    nmap = fit_normalization(train)
    out = apply_normalization(nmap, train)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_normalization_unclamped_on_test():
    nmap = fit_normalization(np.array([[0.0], [2.0]]))
    out = apply_normalization(nmap, np.array([[3.0]]))
    assert out[0, 0] == pytest.approx(1.5)


def test_normalization_degenerate_dimension_warns():
    nmap = fit_normalization(np.array([[1.0, 0.0], [1.0, 2.0]]))
    with pytest.warns(UserWarning):
        out = apply_normalization(nmap, np.array([[1.0, 1.0]]))
    assert out[0, 0] == 0.0
    assert out[0, 1] == pytest.approx(0.5)


@pytest.mark.parametrize("train", [[[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]],
                                   [[0.25, -3.0]]],  # one vector: every feature constant
                         ids=["constant_columns", "one_row"])
def test_fit_normalization_refuses_training_vectors_whose_every_feature_is_constant(train):
    """Such a map sends every vector to 0, so every classifier would give every
    excerpt the same label; a single training vector is refused for that reason."""
    with pytest.raises(IncompleteFeaturesError, match="every training feature is constant"):
        fit_normalization(np.array(train))


def reference_normalization(nmap, vectors):
    """``apply_normalization`` as the allocating formula with a ``vectors - mins``
    temporary, kept as its oracle."""
    vectors = np.asarray(vectors, dtype=float)
    span = nmap.maxs - nmap.mins
    out = (vectors - nmap.mins) / np.where(span == 0, 1.0, span)
    out[:, span == 0] = 0.0
    return out


NORMALIZATION_VALUES = st.floats(width=64) | st.sampled_from([0.0, -0.0, 1.0, 5e-324])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda d: st.tuples(
    hnp.arrays(float, st.tuples(st.integers(1, 6), st.just(d)), elements=NORMALIZATION_VALUES),
    hnp.arrays(float, st.tuples(st.integers(0, 6), st.just(d)), elements=NORMALIZATION_VALUES))))
@example((np.array([[1.0, 0.0, 3.0], [1.0, 2.0, 3.0]]),  # two degenerate dimensions
          np.array([[1.0, 1.0, 2.0], [0.0, -1.0, 3.0]])))
@example((np.array([[0.0, np.inf], [1.0, 2.0]]), np.array([[np.nan, np.inf], [-0.0, 1.0]])))
def test_apply_normalization_into_out_equals_the_allocating_formula(arrays):
    """Bit for bit, into a new array, into a given one and into the vectors
    themselves; without ``out`` the vectors are left unchanged. The map is built
    as ``fit_normalization`` builds it, also where that refuses every dimension
    being degenerate."""
    train_x, test_x = arrays
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")  # the degenerate-dimension warning, inf - inf
        nmap = NormalizationMap(mins=train_x.min(axis=0), maxs=train_x.max(axis=0))
        expected = reference_normalization(nmap, test_x)
        before = test_x.tobytes()
        allocated = apply_normalization(nmap, test_x)
        assert test_x.tobytes() == before
        given_out = np.full_like(test_x, 7.0)
        assert apply_normalization(nmap, test_x, out=given_out) is given_out
        in_place = test_x.copy()
        assert apply_normalization(nmap, in_place, out=in_place) is in_place
    for got in (allocated, given_out, in_place):
        assert got.dtype == np.float64 and got.tobytes() == expected.tobytes()


def test_feature_cache_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    features = {"a.000": rng.normal(size=(9, 32)), "b.001": rng.normal(size=(9, 32))}
    path = tmp_path / "features.csv"
    write_feature_cache(path, features)
    loaded = read_feature_cache(path)
    assert sorted(loaded) == sorted(features)
    for eid in features:
        assert np.array_equal(loaded[eid], features[eid])


def test_feature_cache_rejects_other_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(IncompleteFeaturesError):
        read_feature_cache(path)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, np.inf, -np.inf,
               np.nan, 1.797e308, -1.797e308]
texture_values = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False)
excerpt_ids = st.text(alphabet='ab.0,"\n ', min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(excerpt_ids, st.integers(1, 4).flatmap(
    lambda n: hnp.arrays(float, (n, N_TEXTURE_DIMS), elements=texture_values)),
    min_size=1, max_size=3))
@example({'a,"b': np.array([EDGE_VALUES * 3 + [1.0, -1.0]])})
def test_feature_cache_round_trip_keeps_every_bit(tmp_path_factory, features):
    path = tmp_path_factory.mktemp("cache") / "features.csv"
    write_feature_cache(path, features)
    loaded = read_feature_cache(path)
    assert sorted(loaded) == sorted(features)
    for eid, vectors in features.items():
        # repr writes every nan as "nan", which reads back as the canonical nan
        expected = np.where(np.isnan(vectors), float("nan"), vectors)
        assert loaded[eid].view(np.uint64).tolist() == expected.view(np.uint64).tolist()


def reference_feature_csv(features) -> bytes:
    """The feature CSV as a ``csv.writer`` writes it, one row at a time: the oracle
    of ``write_feature_cache``'s text."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(["id", "window_index"] + [f"f{i}" for i in range(N_TEXTURE_DIMS)])
    for eid in sorted(features):
        for w, vec in enumerate(np.asarray(features[eid]).tolist()):
            writer.writerow([eid, w, *map(repr, map(float, vec))])
    return text.getvalue().encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.text(alphabet='ab.0,"\n\r \u00e9;', max_size=6),
    st.integers(0, 3).flatmap(
        lambda n: hnp.arrays(float, (n, N_TEXTURE_DIMS), elements=texture_values)),
    max_size=3))
@example({'a,"b': np.array([EDGE_VALUES * 3 + [1.0, -1.0]]), "": np.full((1, 32), -0.0),
          " \u00e9\r\n": np.zeros((0, 32))})
@example({"ints": np.arange(2**53 - 16, 2**53 + 48, dtype=np.int64).reshape(2, 32),
          "f32": np.linspace(-1, 1, 32, dtype=np.float32)[None]})
def test_feature_csv_equals_the_csv_writer_rows(tmp_path_factory, features):
    """Ids that need quoting, special floats, integer and float32 windows: the
    CSV holds a ``csv.writer``'s bytes, and the companion their SHA-256."""
    path = tmp_path_factory.mktemp("cache") / "features.csv"
    write_feature_cache(path, features)
    assert path.read_bytes() == reference_feature_csv(features)
    assert companion_path(path).read_bytes()[5:37] == hashlib.sha256(path.read_bytes()).digest()


@pytest.mark.parametrize("row", ["a.000,1,0.5", "a.000,1,0.5,0.5,0.5", "a.000,1,0.5,x",
                                 "a.000,1.0,0.5,0.5", "a.000"])
def test_feature_cache_bad_row_names_its_line(tmp_path, row):
    path = tmp_path / "features.csv"
    path.write_text(f"id,window_index,f0,f1\na.000,0,0.5,0.5\n{row}\nb.000,0,1,1\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:3: ")):
        read_feature_cache(path)


def _bits(loaded):
    return [(eid, vectors.shape, vectors.view(np.uint64).tolist())
            for eid, vectors in loaded.items()]


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(excerpt_ids, st.integers(1, 4).flatmap(
    lambda n: hnp.arrays(float, (n, N_TEXTURE_DIMS), elements=texture_values)),
    min_size=1, max_size=3), excerpt_ids)
@example({'a,"b': np.array([EDGE_VALUES * 3 + [1.0, -1.0]])}, "empty")
@example({"nans": np.array([[-np.nan, np.uint64(0x7FF8000000000001).view(float),
                             np.uint64(0xFFF0000000000001).view(float)] + [0.5] * 29])}, "e")
def test_companion_read_equals_csv_parse(tmp_path_factory, features, empty_id):
    features = {**features, empty_id: np.empty((0, N_TEXTURE_DIMS))}
    path = tmp_path_factory.mktemp("cache") / "features.csv"
    write_feature_cache(path, features)
    with_companion = read_feature_cache(path)
    # one record per id with windows, so the empty id does not make it a miss
    assert struct.unpack_from("<I", companion_path(path).read_bytes(), 37)[0] == \
        len(with_companion)
    companion_path(path).unlink()
    parsed = read_feature_cache(path)
    assert _bits(with_companion) == _bits(parsed)
    assert all(v.dtype == np.float64 and v.flags.writeable for v in with_companion.values())


def test_companion_bytes_repeat_across_writes(tmp_path):
    rng = np.random.default_rng(3)
    features = {"b.001": rng.normal(size=(2, 32)), "a.000": np.full((3, 32), np.nan)}
    blobs = []
    for name in ("one.csv", "two.csv"):
        write_feature_cache(tmp_path / name, features)
        blobs.append(companion_path(tmp_path / name).read_bytes())
    assert blobs[0] == blobs[1]
    assert blobs[0][:5] == b"DFTX2"
    assert blobs[0][5:37] == hashlib.sha256((tmp_path / "one.csv").read_bytes()).digest()


def _plant(path, value):
    """Overwrite the companion's first value, keeping it well-formed."""
    data = bytearray(companion_path(path).read_bytes())
    block = 37 + 4 + 2 + len(b"a.000") + 4  # magic, digest and count; id and window count
    data[block:block + 8] = struct.pack("<d", value)
    companion_path(path).write_bytes(bytes(data))


@pytest.fixture
def cached(tmp_path):
    features = {"a.000": np.arange(64.0).reshape(2, 32),
                "\u00e9.00": np.arange(96.0).reshape(3, 32) / 7}
    path = tmp_path / "features.csv"
    write_feature_cache(path, features)
    _plant(path, -1.5)  # shows whether a read used the companion
    return path


def test_planted_companion_value_is_read(cached):
    assert read_feature_cache(cached)["a.000"][0, 0] == -1.5


def test_stale_companion_is_ignored(cached):
    text = cached.read_text()
    cached.write_text(text.replace("\na.000,0,0.0,", "\na.000,0,4.0,", 1))
    loaded = read_feature_cache(cached)
    assert loaded["a.000"][0, 0] == 4.0
    assert loaded["a.000"][1, 0] == 32.0
    lines = text.splitlines(keepends=True)
    cached.write_text("".join(lines[:2] + ["a.000,2,0.5\n"] + lines[2:]))
    with pytest.raises(ParseError, match=re.escape(f"{cached}:3: ")):
        read_feature_cache(cached)


def _count(data, delta, records=b""):
    (count,) = struct.unpack_from("<I", data, 37)
    return data[:37] + struct.pack("<I", count + delta) + records + data[41:]


@pytest.mark.parametrize("damage", [
    lambda d: b"DFTX1" + d[5:],
    lambda d: d[:5] + bytes([d[5] ^ 1]) + d[6:],
    lambda d: d[:-1],
    lambda d: d[:-8],
    lambda d: d[:20],
    lambda d: b"",
    lambda d: d + b"\0" * 8,
    lambda d: _count(d, 1),
    lambda d: _count(d, -1),
    lambda d: d.replace(b"\x05\x00a.000\x02", b"\x05\x00a.000\x03"),
    lambda d: d.replace(b"a.000", b"a\xff000"),
    lambda d: d.replace("\u00e9.00".encode(), b"a.000"),
    lambda d: _count(d, 1, b"\x01\x00z" + struct.pack("<I", 0)),
    lambda d: _count(d, 1, b"\x01\x000" + struct.pack("<I", 0)),
], ids=["magic", "digest", "truncated", "short_by_a_value", "truncated_header", "empty",
        "trailing_bytes", "count_plus_one", "count_minus_one", "window_count", "not_utf8",
        "repeated_id", "zero_window_record", "zero_window_record_in_order"])
def test_malformed_companion_gives_the_parse(cached, damage):
    companion = companion_path(cached)
    data = companion.read_bytes()
    companion.write_bytes(damage(data))
    assert companion.read_bytes() != data
    loaded = read_feature_cache(cached)
    assert loaded["a.000"][0, 0] == 0.0
    companion.unlink()
    assert _bits(loaded) == _bits(read_feature_cache(cached))


def test_companion_in_the_old_layout_gives_the_parse(cached):
    """A DFTX1 companion (every id's header, then one value block) is stale."""
    planted = {"a.000": np.arange(64.0).reshape(2, 32),
               "\u00e9.00": np.arange(96.0).reshape(3, 32) / 7}
    planted["a.000"][0, 0] = -1.5
    old = b"DFTX1" + hashlib.sha256(cached.read_bytes()).digest() + struct.pack("<I", 2)
    for eid in sorted(planted):
        old += struct.pack("<H", len(eid.encode())) + eid.encode()
        old += struct.pack("<I", len(planted[eid]))
    old += b"".join(planted[eid].astype("<f8").tobytes() for eid in sorted(planted))
    companion_path(cached).write_bytes(old)
    loaded = read_feature_cache(cached)
    assert loaded["a.000"][0, 0] == 0.0
    companion_path(cached).unlink()
    assert _bits(loaded) == _bits(read_feature_cache(cached))


def test_companion_that_is_a_directory_gives_the_parse(cached):
    companion_path(cached).unlink()
    companion_path(cached).mkdir()
    assert read_feature_cache(cached)["a.000"][0, 0] == 0.0


def test_id_too_long_for_the_companion_is_parsed(tmp_path):
    path = tmp_path / "features.csv"
    features = {"a" * 0x10000: np.ones((1, 32))}
    write_feature_cache(path, features)
    assert not companion_path(path).exists()
    assert _bits(read_feature_cache(path)) == _bits(features)


@pytest.mark.parametrize("bad", [np.zeros((2, 31)), np.zeros(32), np.zeros((1, 2, 32))])
def test_writer_rejects_wrong_shapes_before_writing(tmp_path, bad):
    path = tmp_path / "features.csv"
    with pytest.raises(ValueError, match="'b'"):
        write_feature_cache(path, {"a": np.zeros((1, 32)), "b": bad})
    assert list(tmp_path.iterdir()) == []


def test_writer_io_errors_name_the_file(tmp_path):
    path = tmp_path / "missing" / "features.csv"
    with pytest.raises(IoError, match=re.escape(str(path))):
        write_feature_cache(path, {"a": np.zeros((1, 32))})
    path = tmp_path / "features.csv"
    companion_path(path).mkdir()
    with pytest.raises(IoError, match=re.escape(str(companion_path(path)))):
        write_feature_cache(path, {"a": np.zeros((1, 32))})


def test_reading_a_directory_is_an_io_error(tmp_path):
    with pytest.raises(IoError, match=re.escape(str(tmp_path))):
        read_feature_cache(tmp_path)
