import json
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from corpusaudit.corpus import (
    Corpus,
    Excerpt,
    load_audio,
    load_metadata,
    load_tags,
    normalize_text,
    read_json,
    write_json,
)
from corpusaudit.errors import (
    AuditError,
    DuplicateIdError,
    FormatError,
    IoError,
    ParseError,
    UnknownExcerptError,
)
from corpusaudit.faults import exact_groups_from_csv
from corpusaudit.features import read_feature_cache

HEADER = "id,label,artist,title\n"


def write_csv(tmp_path, body, name="meta.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body, encoding="utf-8")
    return path


def test_load_metadata_identified_row(tmp_path):
    path = write_csv(tmp_path,
                     "country.00039,country,Wayne Toups & Zydecajun,Johnnie Can't Dance\n")
    corpus = load_metadata(path)
    ex = corpus.get("country.00039")
    assert ex.identified
    assert ex.artist == "Wayne Toups & Zydecajun"
    assert ex.title == "Johnnie Can't Dance"


def test_load_metadata_unidentified_row(tmp_path):
    corpus = load_metadata(write_csv(tmp_path, "jazz.00061,jazz,,\n"))
    ex = corpus.get("jazz.00061")
    assert not ex.identified
    assert ex.artist is None and ex.title is None


def test_load_metadata_empty_file(tmp_path):
    corpus = load_metadata(write_csv(tmp_path, ""))
    assert len(corpus) == 0


def test_load_metadata_duplicate_id(tmp_path):
    path = write_csv(tmp_path, "x.0,rock,,\nx.0,rock,,\n")
    with pytest.raises(DuplicateIdError):
        load_metadata(path)


def test_load_metadata_malformed_row_reports_line(tmp_path):
    path = write_csv(tmp_path, "x.0,rock,,\ny.1,rock\n")
    with pytest.raises(ParseError, match=":3:"):
        load_metadata(path)


def test_load_metadata_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,genre\nx,rock\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_metadata(path)


def test_metadata_round_trip(tmp_path):
    path = write_csv(tmp_path,
                     "a.0,rock,The Band,\"Hello, World\"\n"
                     "b.0,jazz,,\n"
                     "c.0,rock,Solo,\n")
    assert load_metadata(path) == Corpus(labels=("rock", "jazz"), excerpts=(
        Excerpt(id="a.0", label="rock", artist="The Band", title="Hello, World"),
        Excerpt(id="b.0", label="jazz"),
        Excerpt(id="c.0", label="rock", artist="Solo"),
    ))


def test_metadata_io_errors_name_the_file(tmp_path):
    with pytest.raises(IoError, match="cannot read metadata CSV"):
        load_metadata(tmp_path)


def test_load_metadata_order_insensitive(tmp_path):
    body_a = "a.0,rock,X,\nb.0,jazz,Y,\n"
    body_b = "b.0,jazz,Y,\na.0,rock,X,\n"
    ca = load_metadata(write_csv(tmp_path, body_a, "a.csv"))
    cb = load_metadata(write_csv(tmp_path, body_b, "b.csv"))
    assert set(ca.excerpts) == set(cb.excerpts)
    # labels come in order of first appearance
    assert (ca.labels, cb.labels) == (("rock", "jazz"), ("jazz", "rock"))


def test_normalize_text():
    assert normalize_text("  Blues  Guitar ") == "blues guitar"
    assert normalize_text("ROCK") == "rock"


def write_tags(tmp_path, entries):
    path = tmp_path / "tags.json"
    path.write_text(json.dumps(entries), encoding="utf-8")
    return path


def two_excerpt_corpus():
    return Corpus(labels=("rock",), excerpts=(
        Excerpt(id="a.0", label="rock", artist="X"),
        Excerpt(id="b.0", label="rock", artist="Y"),
    ))


def test_load_tags_merges_normalized_duplicates(tmp_path):
    corpus = two_excerpt_corpus()
    path = write_tags(tmp_path, [{
        "id": "a.0", "source": "song",
        "tags": [{"tag": "Blues", "count": 100}, {"tag": "blues ", "count": 1}],
    }])
    tags = load_tags(path, corpus)
    assert tags["a.0"] == (("blues", 101),)


def test_load_tags_merges_entries_for_one_excerpt(tmp_path):
    corpus = two_excerpt_corpus()
    path = write_tags(tmp_path, [
        {"id": "a.0", "source": "song", "tags": [{"tag": "rock", "count": 4}]},
        {"id": "b.0", "tags": [{"tag": "jazz", "count": 1}]},
        {"id": "a.0", "source": "artist",
         "tags": [{"tag": "Blues", "count": 2}, {"tag": "ROCK", "count": 3}]},
    ])
    tags = load_tags(path, corpus)
    assert tags["a.0"] == (("blues", 2), ("rock", 7))
    assert tags["b.0"] == (("jazz", 1),)


def test_load_tags_drops_zero_counts(tmp_path):
    corpus = two_excerpt_corpus()
    path = write_tags(tmp_path, [{
        "id": "a.0", "source": "song",
        "tags": [{"tag": "rock", "count": 3}, {"tag": "noise", "count": 0}],
    }])
    tags = load_tags(path, corpus)
    assert tags["a.0"] == (("rock", 3),)


def test_load_tags_negative_count(tmp_path):
    corpus = two_excerpt_corpus()
    path = write_tags(tmp_path, [{
        "id": "a.0", "source": "song", "tags": [{"tag": "rock", "count": -1}],
    }])
    with pytest.raises(ParseError):
        load_tags(path, corpus)


def test_load_tags_unknown_excerpt(tmp_path):
    corpus = two_excerpt_corpus()
    path = write_tags(tmp_path, [{"id": "zzz", "source": "song", "tags": []}])
    with pytest.raises(UnknownExcerptError):
        load_tags(path, corpus)


def test_load_tags_checks_the_source(tmp_path):
    corpus = two_excerpt_corpus()
    path = write_tags(tmp_path, [
        {"id": "a.0", "source": "song", "tags": [{"tag": "rock", "count": 1}]},
        {"id": "b.0", "source": "artist", "tags": [{"tag": "rock", "count": 1}]},
    ])
    assert list(load_tags(path, corpus).values()) == [(("rock", 1),)] * 2
    path = write_tags(tmp_path, [{"id": "a.0", "source": "album", "tags": []}])
    with pytest.raises(ParseError, match="entry 0: bad source 'album'"):
        load_tags(path, corpus)


def make_wav(tmp_path, data, rate=22050, name="x.wav"):
    path = tmp_path / name
    wavfile.write(path, rate, data)
    return path


def test_load_audio_duration_and_scaling(tmp_path):
    data = np.zeros(661500, dtype=np.int16)
    data[0] = -32768
    data[1] = 32767
    path = make_wav(tmp_path, data)
    ex = Excerpt(id="x", label="rock", audio_path=path)
    samples = load_audio(ex)
    assert len(samples) == 661500
    assert samples[0] == -1.0
    assert abs(samples[1] - 32767 / 32768) < 1e-12


def test_load_audio_scales_every_int16_value_exactly(tmp_path):
    data = np.arange(-32768, 32768, dtype=np.int16)
    path = make_wav(tmp_path, data)
    samples = load_audio(Excerpt(id="x", label="rock", audio_path=path))
    assert samples.dtype == np.float64
    assert samples.tobytes() == (data.astype(np.float64) / 32768.0).tobytes()


def test_load_audio_float32_passthrough(tmp_path):
    data = np.linspace(-0.5, 0.5, 100, dtype=np.float32)
    path = make_wav(tmp_path, data)
    samples = load_audio(Excerpt(id="x", label="rock", audio_path=path))
    np.testing.assert_allclose(samples, data, atol=1e-7)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_load_audio_rejects_a_non_finite_sample(tmp_path, dtype, value):
    data = np.zeros(100, dtype=dtype)
    data[[7, 50]] = value
    path = make_wav(tmp_path, data)
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}: sample 7 is {value}, not"):
        load_audio(Excerpt(id="x", label="rock", audio_path=path))


def test_load_audio_stereo_rejected(tmp_path):
    data = np.zeros((100, 2), dtype=np.int16)
    path = make_wav(tmp_path, data)
    with pytest.raises(FormatError):
        load_audio(Excerpt(id="x", label="rock", audio_path=path))


def test_load_audio_wrong_rate(tmp_path):
    path = make_wav(tmp_path, np.zeros(100, dtype=np.int16), rate=44100)
    with pytest.raises(FormatError):
        load_audio(Excerpt(id="x", label="rock", audio_path=path))


def test_load_audio_missing_file(tmp_path):
    ex = Excerpt(id="x", label="rock", audio_path=tmp_path / "nope.wav")
    with pytest.raises(IoError):
        load_audio(ex)


def test_load_audio_directory_is_an_io_error(tmp_path):
    ex = Excerpt(id="x", label="rock", audio_path=tmp_path)
    with pytest.raises(IoError, match=f"cannot read audio file {re.escape(str(tmp_path))}"):
        load_audio(ex)


# a WAVE_FORMAT_EXTENSIBLE subformat GUID after its 4-byte format tag
GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
SAMPLE_TYPES = {(1, 16): "<i2", (3, 32): "<f4", (3, 64): "<f8"}


def chunk(chunk_id: bytes, body: bytes, size: int | None = None) -> bytes:
    """A RIFF chunk: id, size (``len(body)`` unless given), body, and a pad
    byte when the body's length is odd."""
    size = len(body) if size is None else size
    return chunk_id + struct.pack("<I", size) + body + b"\0" * (len(body) % 2)


def fmt_chunk(tag=1, bits=16, channels=1, rate=22050, extensible=False, extra=b"",
              guid_tail=GUID_TAIL):
    align = channels * bits // 8
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                       rate * align, align, bits)
    if extensible:
        body += struct.pack("<HHII", 22, bits, 4, tag) + guid_tail
    return chunk(b"fmt ", body + extra)


def wav_bytes(*chunks: bytes, form: bytes = b"RIFF") -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return form + struct.pack("<I", len(body)) + body


def wav_samples(fmt, n=50):
    """``n`` samples of the sample type ``SAMPLE_TYPES[fmt]``, extremes first."""
    dtype = np.dtype(SAMPLE_TYPES[fmt])
    rng = np.random.default_rng(n)
    if dtype.kind == "i":
        return np.concatenate([[-32768, 32767, 0, -1], rng.integers(-32768, 32768, n - 4)]
                              ).astype(dtype)
    return np.concatenate([[-1.0, 1.0, 0.0, 1e-40], rng.uniform(-1, 1, n - 4)]).astype(dtype)


def layout(name, fmt, data):
    """A WAV file of ``data`` with the format ``fmt``, laid out as ``name`` says."""
    tag, bits = fmt
    samples = chunk(b"data", data.tobytes())
    if name == "plain":
        return wav_bytes(fmt_chunk(tag, bits), samples)
    if name == "fmt_18_bytes":
        return wav_bytes(fmt_chunk(tag, bits, extra=b"\0\0"), samples)
    if name == "extensible":
        return wav_bytes(fmt_chunk(tag, bits, extensible=True), samples)
    assert name == "odd_chunks_around_data"
    return wav_bytes(chunk(b"LIST", b"INFO!"), fmt_chunk(tag, bits),
                     chunk(b"fact", struct.pack("<I", len(data))), chunk(b"JUNK", b"abc"),
                     samples, chunk(b"LIST", b"INFOxyz"), chunk(b"abcd", b"\1"))


def scipy_load_audio(path):
    """``load_audio`` as it was built on ``scipy.io.wavfile.read``, kept as its
    oracle: the samples scaled as ``load_audio`` scales them."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)  # chunks it does not know
        rate, data = wavfile.read(path)
    assert rate == 22050 and data.ndim == 1
    if data.dtype == np.int16:
        return np.multiply(data, 2.0**-15, dtype=np.float64)
    return data.astype(np.float64)


@pytest.mark.parametrize("fmt", list(SAMPLE_TYPES))
@pytest.mark.parametrize("name", ["scipy_written", "plain", "fmt_18_bytes", "extensible",
                                  "odd_chunks_around_data"])
def test_load_audio_equals_scipy_wavfile(tmp_path, fmt, name):
    data = wav_samples(fmt)
    path = tmp_path / "x.wav"
    if name == "scipy_written":
        wavfile.write(path, 22050, data)
    else:
        path.write_bytes(layout(name, fmt, data))
    got = load_audio(Excerpt(id="x", label="rock", audio_path=path))
    assert got.dtype == np.float64
    assert got.tobytes() == scipy_load_audio(path).tobytes()
    assert np.array_equal(got, data.astype(np.float64) * (2.0**-15 if fmt == (1, 16) else 1))


PCM = chunk(b"data", wav_samples((1, 16)).tobytes())
BAD_WAVS = {
    "pcm_8_bit": (wav_bytes(fmt_chunk(bits=8), PCM), "unsupported sample format"),
    "pcm_24_bit": (wav_bytes(fmt_chunk(bits=24), PCM), "unsupported sample format"),
    "pcm_32_bit": (wav_bytes(fmt_chunk(bits=32), PCM), "unsupported sample format"),
    "float_16_bit": (wav_bytes(fmt_chunk(tag=3, bits=16), PCM), "unsupported sample format"),
    "mu_law": (wav_bytes(fmt_chunk(tag=7, bits=8), PCM), "unsupported sample format"),
    "extensible_unknown_guid": (
        wav_bytes(fmt_chunk(extensible=True, guid_tail=bytes(12)), PCM),
        "unsupported sample format"),
    "block_align_4": (wav_bytes(chunk(b"fmt ", struct.pack("<HHIIHH", 1, 1, 22050, 88200,
                                                            4, 16)), PCM),
                      "unsupported sample format"),
    "stereo": (wav_bytes(fmt_chunk(channels=2), PCM), "expected mono, got 2 channels"),
    "rate": (wav_bytes(fmt_chunk(rate=44100), PCM), "sample rate 44100, expected 22050"),
    "rifx": (wav_bytes(fmt_chunk(), PCM, form=b"RIFX"), "not a little-endian RIFF WAVE"),
    "rf64": (wav_bytes(fmt_chunk(), PCM, form=b"RF64"), "not a little-endian RIFF WAVE"),
    "not_wave": (wav_bytes(fmt_chunk(), PCM).replace(b"WAVE", b"AVI ", 1),
                 "not a little-endian RIFF WAVE"),
    "empty": (b"", "not a little-endian RIFF WAVE"),
    "no_chunks": (wav_bytes(), "no fmt chunk"),
    "no_fmt": (wav_bytes(PCM), "data chunk before the fmt chunk"),
    "data_before_fmt": (wav_bytes(PCM, fmt_chunk()), "data chunk before the fmt chunk"),
    "no_data": (wav_bytes(fmt_chunk(), chunk(b"LIST", b"INFO")), "no data chunk"),
    "fmt_14_bytes": (wav_bytes(chunk(b"fmt ", bytes(14)), PCM), "fmt chunk of 14 bytes"),
    "header_cut_in_riff": (wav_bytes(fmt_chunk(), PCM)[:10], "not a little-endian RIFF WAVE"),
    "header_cut_in_fmt": (wav_bytes(fmt_chunk(), PCM)[:30], "fmt chunk of 10 bytes"),
    "header_cut_in_data_header": (wav_bytes(fmt_chunk(), PCM)[:40], "no data chunk"),
}


@pytest.mark.parametrize("case", list(BAD_WAVS))
def test_load_audio_rejects_a_malformed_or_unsupported_file(tmp_path, case):
    raw, needle = BAD_WAVS[case]
    path = tmp_path / "x.wav"
    path.write_bytes(raw)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{re.escape(needle)}"):
        load_audio(Excerpt(id="x", label="rock", audio_path=path))


def test_load_audio_reads_the_whole_samples_present(tmp_path):
    """A data chunk claiming more bytes than the file holds yields the whole
    samples present (scipy warns and gives the same); a partial sample at its
    end, or at the end of an odd-sized chunk, is dropped."""
    data = wav_samples((1, 16), n=100)
    path = tmp_path / "x.wav"
    whole = wav_bytes(fmt_chunk(), chunk(b"data", data.tobytes()))
    for raw, n in [(whole[:-79], 60), (whole[:-80], 60),
                   (wav_bytes(fmt_chunk(), chunk(b"data", data.tobytes() + b"\7")), 100)]:
        path.write_bytes(raw)
        got = load_audio(Excerpt(id="x", label="rock", audio_path=path))
        assert got.tobytes() == (data[:n] * 2.0**-15).tobytes()


@pytest.fixture(scope="module")
def fuzz_wav(tmp_path_factory):
    return tmp_path_factory.mktemp("wav") / "fuzz.wav"


FUZZ_SEEDS = [layout(name, fmt, wav_samples(fmt, n=8)) for fmt in SAMPLE_TYPES
              for name in ("plain", "extensible", "odd_chunks_around_data")]
FIELD_VALUES = [b"\0\0\0\0", b"\xff\xff\xff\xff", b"\x10\0\0\0", b"\x01", b"\x03\0",
                b"\xfe\xff", b"fmt ", b"data"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_SEEDS) | st.binary(max_size=64),
       st.lists(st.tuples(st.integers(0, 200), st.sampled_from(FIELD_VALUES)
                          | st.binary(min_size=1, max_size=4)), max_size=5),
       st.integers(0, 250))
def test_load_audio_raises_only_toolkit_errors(fuzz_wav, base, edits, cut):
    """Raw bytes, and valid files with fields overwritten and the end cut:
    ``load_audio`` returns finite float64 samples or raises an AuditError."""
    raw = bytearray(base)
    for at, value in edits:
        raw[at:at + len(value)] = value
    fuzz_wav.write_bytes(bytes(raw[:cut]))
    try:
        samples = load_audio(Excerpt(id="x", label="rock", audio_path=fuzz_wav))
    except AuditError:
        return
    assert samples.dtype == np.float64 and samples.ndim == 1 and np.isfinite(samples).all()


FUZZ_CORPUS = Corpus(labels=("a", "b"), excerpts=(Excerpt(id="a.0", label="a"),
                                                   Excerpt(id="b.0", label="b")))

# each CSV reader with the header it expects, so fuzzed bodies get past it
CSV_READERS = {
    "metadata": (lambda path: load_metadata(path), b"id,label,artist,title\n"),
    "feature_csv": (read_feature_cache, b"id,window_index,f0,f1\n"),
    "dupes_csv": (lambda path: exact_groups_from_csv(path, 0.5, FUZZ_CORPUS),
                  b"id_a,id_b,score,offset_frames\n"),
}

CSV_TOKENS = st.lists(st.sampled_from(
    [b",", b"\n", b"\r", b'"', b" ", b"\x00", b"\xff", b"\xc3", b"\xc3\xa9", b"a.0", b"b.0",
     b"a", b"b", b"0", b"1", b"-1", b"0.5", b"nan", b"inf", b"1e999", b"1_0", b"x"]),
    max_size=40).map(b"".join)


@pytest.mark.parametrize("reader", sorted(CSV_READERS))
@settings(max_examples=300, deadline=None)
@given(prefixed=st.booleans(), body=CSV_TOKENS | st.binary(max_size=80))
@example(prefixed=True, body=b"a.0,a,Ann,\xff\n")
@example(prefixed=True, body=b"a.0,0,0.5,\xff\n")
@example(prefixed=True, body=b"a.0,b.0,0.9\xff,0\n")
@example(prefixed=False, body=b"\xff")
@example(prefixed=True, body=b"a.0,\x00,0.5\n")
def test_csv_readers_raise_only_toolkit_errors(tmp_path_factory, reader, prefixed, body):
    """Any bytes, after the expected header or alone: each reader returns or
    raises an ``AuditError``, never a traceback."""
    read, header = CSV_READERS[reader]
    path = tmp_path_factory.getbasetemp() / f"fuzz-{reader}.csv"
    path.write_bytes(header + body if prefixed else body)
    try:
        read(path)
    except AuditError:
        pass



JSON_LEAVES = (st.none() | st.booleans() | st.floats() | st.integers()
               | st.integers(-10**400, 10**400) | st.text(max_size=4))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda children: st.lists(children, max_size=3)
                           | st.dictionaries(st.text(max_size=4), children, max_size=3),
                           max_leaves=6)
# snapshot-shaped values, any field of which may be any JSON value
TAG_OBJECTS = st.fixed_dictionaries({}, optional={
    "tag": st.text(max_size=4) | JSON_VALUES, "count": st.integers(-1, 3) | JSON_VALUES})
TAG_ENTRIES = st.fixed_dictionaries({}, optional={
    "id": st.sampled_from(["a.0", "b.0", "c.0"]) | JSON_VALUES,
    "source": st.sampled_from(["song", "artist"]) | JSON_VALUES,
    "tags": st.lists(TAG_OBJECTS | JSON_VALUES, max_size=3) | JSON_VALUES})
TAG_SNAPSHOTS = st.lists(TAG_ENTRIES | JSON_VALUES, max_size=3) | JSON_VALUES


@settings(max_examples=300, deadline=None)
@given(TAG_SNAPSHOTS)
@example([{"id": ["a.0"]}])
@example([{"id": "a.0", "tags": 5}])
@example([{"id": "a.0", "tags": None}])
@example([{"id": {"a.0": 1}, "source": ["song"]}])
@example([{"id": "a.0", "source": ["song"], "tags": [{"tag": ["x"], "count": 1}]}])
def test_load_tags_raises_only_toolkit_errors(tmp_path_factory, snapshot):
    path = tmp_path_factory.getbasetemp() / "fuzz-tags.json"
    path.write_text(json.dumps(snapshot))
    try:
        load_tags(path, FUZZ_CORPUS)
    except AuditError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=40) | st.text(max_size=40).map(str.encode)
       | st.builds(lambda depth, token: token * depth, st.integers(0, 3000),
                   st.sampled_from([b"[", b'{"a":', b"[{\"a\":"])))
@example(b"[" * 100_000)
@example(b'{"a":' * 100_000)
@example(b"[" * 500 + b"]" * 500)
def test_read_json_raises_only_toolkit_errors(tmp_path_factory, data):
    """Any bytes, nested arrays and objects of any depth among them: ``read_json``
    returns a value or raises an ``AuditError``."""
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_bytes(data)
    try:
        read_json(path, "JSON file")
    except AuditError:
        pass


# write_json's scalars: strings with a NUL, the characters that close JSON containers
# or separate their items, a newline and non-ASCII text; every float, -0.0 and the
# non-finite ones among them; integers far beyond 64 bits
WRITE_TEXT = st.text(st.sampled_from('\x00}],{[:"\\\n aé☃\U0001f600'), max_size=5)
WRITE_SCALARS = (st.none() | st.booleans() | st.floats() | st.integers(-10**40, 10**40)
                 | WRITE_TEXT)
# flat containers, holding only scalars or also empty containers, and records of them
WRITE_FLAT = (st.lists(WRITE_SCALARS, min_size=1, max_size=4)
              | st.dictionaries(WRITE_TEXT, WRITE_SCALARS, min_size=1, max_size=4))
WRITE_LEAVES = WRITE_SCALARS | st.sampled_from([[], {}, ()]) | WRITE_FLAT
WRITE_VALUES = st.recursive(
    WRITE_LEAVES,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(WRITE_TEXT, children, max_size=4)
                      | st.lists(WRITE_FLAT, min_size=1, max_size=4)
                      | st.lists(st.dictionaries(WRITE_TEXT, WRITE_LEAVES, min_size=1,
                                                 max_size=3), min_size=1, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(WRITE_VALUES)
@example([{"id": "a,\x00}", "fold": 0}, {"id": "é", "fold": -0.0}])
@example([[float("nan"), float("inf")], [-float("inf"), 10**30]])
@example({"a": [{"b": []}, {"c": 1}], "d": [[1, {}], [2]], "e": [[]]})
@example([{"members": ["a.0", "a.1"], "kind": "exact"}, {"x": {"y": [1]}}])
def test_write_json_writes_the_bytes_of_json_dumps(tmp_path_factory, value):
    path = tmp_path_factory.getbasetemp() / "written.json"
    write_json(path, value)
    assert path.read_bytes() == (json.dumps(value, indent=2, sort_keys=True) + "\n").encode()
