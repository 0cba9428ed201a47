import json
import re

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
    save_metadata,
    tag_coverage,
)
from corpusaudit.errors import (
    AuditError,
    DuplicateIdError,
    FormatError,
    IoError,
    LabelError,
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


def test_load_metadata_unknown_label(tmp_path):
    path = write_csv(tmp_path, "x.0,weird,,\n")
    with pytest.raises(LabelError):
        load_metadata(path, labels=("rock", "jazz"))


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
    corpus = load_metadata(path)
    out = tmp_path / "again.csv"
    save_metadata(corpus, out)
    assert load_metadata(out) == corpus


def test_metadata_io_errors_name_the_file(tmp_path):
    corpus = load_metadata(write_csv(tmp_path, "a.0,rock,,\n"))
    out = tmp_path / "missing" / "again.csv"
    with pytest.raises(IoError, match="cannot write metadata CSV .*again.csv"):
        save_metadata(corpus, out)
    with pytest.raises(IoError, match="cannot read metadata CSV"):
        load_metadata(tmp_path)


def test_load_metadata_order_insensitive(tmp_path):
    body_a = "a.0,rock,X,\nb.0,jazz,Y,\n"
    body_b = "b.0,jazz,Y,\na.0,rock,X,\n"
    ca = load_metadata(write_csv(tmp_path, body_a, "a.csv"), labels=("rock", "jazz"))
    cb = load_metadata(write_csv(tmp_path, body_b, "b.csv"), labels=("rock", "jazz"))
    assert set(ca.excerpts) == set(cb.excerpts)
    assert ca.labels == cb.labels


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
    assert tags["a.0"].pairs == (("blues", 101),)


def test_load_tags_drops_zero_counts(tmp_path):
    corpus = two_excerpt_corpus()
    path = write_tags(tmp_path, [{
        "id": "a.0", "source": "song",
        "tags": [{"tag": "rock", "count": 3}, {"tag": "noise", "count": 0}],
    }])
    tags = load_tags(path, corpus)
    assert tags["a.0"].pairs == (("rock", 3),)


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


def test_tag_coverage_counts_sources(tmp_path):
    corpus = two_excerpt_corpus()
    path = write_tags(tmp_path, [
        {"id": "a.0", "source": "song", "tags": [{"tag": "rock", "count": 1}]},
        {"id": "b.0", "source": "artist", "tags": [{"tag": "rock", "count": 1}]},
    ])
    report = tag_coverage(corpus, load_tags(path, corpus))
    assert report["rock"] == {"song": 1, "artist": 1, "untagged": 0}


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


def test_identification_tally(small_corpus):
    assert small_corpus.identification_tally() == (5, 1)


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

