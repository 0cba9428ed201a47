"""Data model and ingestion for excerpts, metadata, tag snapshots and audio.

File formats:
  - metadata CSV: header ``id,label,artist,title``, UTF-8, RFC-4180 quoting.
  - tag snapshot JSON: array of
    ``{"id": str, "source": "song"|"artist", "tags": [{"tag": str, "count": int}]}``.
  - audio: RIFF WAVE, mono, PCM 16-bit or IEEE float 32/64-bit, at ``SAMPLE_RATE``;
    see ``_read_wav_samples``.
  - binary caches (fingerprints, texture vectors): id-keyed row records,
    see ``write_records``.

All loaded structures are treated as immutable after construction and are
safe to share across workers.
"""

import csv
import json
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateIdError,
    FormatError,
    IoError,
    LabelError,
    ParseError,
    UnknownExcerptError,
    in_file,
    reading,
    writing,
)

SAMPLE_RATE = 22050  # Hz; every excerpt, as in GTZAN

METADATA_HEADER = ["id", "label", "artist", "title"]

TAG_SOURCES = ("song", "artist")


def normalize_text(s: str) -> str:
    """Lower-case, trim, and collapse internal whitespace."""
    return " ".join(s.lower().split())


@dataclass(frozen=True)
class Excerpt:
    """One labeled audio clip with identification metadata."""

    id: str
    label: str
    artist: str | None = None
    title: str | None = None
    audio_path: Path | None = None

    @property
    def identified(self) -> bool:
        return self.artist is not None or self.title is not None

    @property
    def artist_key(self) -> str | None:
        """The normalized artist, None if unknown or blank; one artist's excerpts share it."""
        return normalize_text(self.artist or "") or None


@dataclass(frozen=True)
class TagCountSet:
    """Tag->count pairs for one excerpt, already normalized and merged."""

    owner: str
    pairs: tuple[tuple[str, int], ...]


@dataclass
class Corpus:
    """An ordered label set plus the excerpts drawn from it."""

    labels: tuple[str, ...]
    excerpts: tuple[Excerpt, ...]
    _by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.labels = tuple(self.labels)
        self.excerpts = tuple(self.excerpts)
        by_id = {}
        label_set = set(self.labels)
        for ex in self.excerpts:
            if ex.id in by_id:
                raise DuplicateIdError(f"duplicate excerpt id {ex.id!r}")
            if ex.label not in label_set:
                raise LabelError(f"excerpt {ex.id!r} has unknown label {ex.label!r}")
            by_id[ex.id] = ex
        self._by_id = by_id

    def __len__(self) -> int:
        return len(self.excerpts)

    def __contains__(self, excerpt_id: str) -> bool:
        return excerpt_id in self._by_id

    def get(self, excerpt_id: str) -> Excerpt:
        try:
            return self._by_id[excerpt_id]
        except KeyError:
            raise UnknownExcerptError(f"unknown excerpt id {excerpt_id!r}") from None

    def with_label(self, label: str) -> list[Excerpt]:
        return [ex for ex in self.excerpts if ex.label == label]


@contextmanager
def open_text(path, what: str):
    """Open a UTF-8 text file for reading, as a context manager.

    A missing or unreadable file is an ``IoError``. Bytes that are not
    UTF-8, and a line the ``csv`` module refuses (a field over its size
    limit, say), met while the file is read inside the ``with`` block, are
    a ``ParseError`` naming ``path``.
    """
    with reading(path, what):
        fh = Path(path).open(newline="", encoding="utf-8")
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: {what} is not UTF-8 text: {exc.reason} "
                             f"(bytes {exc.object[exc.start:exc.end].hex(' ')})") from None
        except csv.Error as exc:
            raise ParseError(f"{path}: malformed {what}: {exc}") from None


def read_json(path, what: str, parse=lambda data: data):
    """``parse`` of a JSON file's value. A missing file is an ``IoError``, and invalid
    or too deeply nested JSON a ``ParseError``; a toolkit error from ``parse`` gets
    ``path`` prefixed."""
    with open_text(path, what) as fh:
        try:
            data = json.load(fh)
        # bad JSON syntax, bytes that are not UTF-8, or arrays and objects nested
        # deeper than the decoder's recursion limit
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"{path}: invalid JSON: {exc}") from None
    with in_file(path):
        return parse(data)


def write_text(path, text: str, what: str = "output") -> None:
    """Write ``text`` to ``path`` as UTF-8, or to standard output if ``path`` is empty."""
    if not path:
        sys.stdout.write(text)
        return
    with writing(path, what):
        Path(path).write_text(text, encoding="utf-8")


def write_json(path, obj, what: str = "output") -> None:
    """Write ``obj`` as every JSON output is written: indent 2, sorted keys, final newline."""
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n", what)


def write_records(path, what: str, header: bytes, arrays: dict[str, np.ndarray],
                  dtype) -> None:
    """Write id-keyed row arrays in the binary layout ``read_records`` reads.

    The file is ``header``, a ``<I`` id count, then per id in sorted order
    a ``<H`` UTF-8 length, the id, a ``<I`` row count and the rows as
    little-endian ``dtype``. An id too long for its length field raises
    ValueError, naming it, before the file is opened.
    """
    encoded = {eid: eid.encode("utf-8") for eid in arrays}
    for eid, e in encoded.items():
        if len(e) > 0xFFFF:
            raise ValueError(f"excerpt {eid!r}: id is {len(e)} UTF-8 bytes, "
                             f"a {what} holds at most 65535")
    path = Path(path)
    with writing(path, what), path.open("wb") as fh:
        fh.write(header + struct.pack("<I", len(arrays)))
        for eid in sorted(arrays):
            rows = np.asarray(arrays[eid], dtype=dtype)
            fh.write(struct.pack("<H", len(encoded[eid])) + encoded[eid]
                     + struct.pack("<I", len(rows)))
            fh.write(rows.tobytes())


def read_records(path, what: str, header: bytes, dtype, width: int) -> dict[str, np.ndarray]:
    """Read a ``write_records`` file into id -> ``(rows, width)`` arrays.

    Each record's rows are read into an array of their own. A missing or
    unreadable file is an ``IoError``. A wrong header, a truncated record,
    trailing bytes, an id that is not UTF-8 and ids that are not unique
    and ascending are each a ``ParseError``.
    """
    path = Path(path)
    row_size = np.dtype(dtype).itemsize * width
    out = {}
    with reading(path, what), path.open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if fh.read(len(header)) != header:
            raise ParseError(f"{path}: not a {what}")
        pos = len(header)

        def claim(n: int) -> None:
            """Step over the next ``n`` bytes, which must all be present."""
            nonlocal pos
            if pos + n > size:
                raise ParseError(f"{path}: truncated {what} "
                                 f"({size} bytes, record needs {pos + n})")
            pos += n

        claim(4)
        (count,) = struct.unpack("<I", fh.read(4))
        for _ in range(count):
            claim(2)
            (id_len,) = struct.unpack("<H", fh.read(2))
            claim(id_len + 4)
            id_and_count = fh.read(id_len + 4)  # the id, then its row count
            try:
                eid = id_and_count[:id_len].decode("utf-8")
            except UnicodeDecodeError:
                raise ParseError(f"{path}: excerpt id at byte {pos - id_len - 4} "
                                 "is not UTF-8") from None
            (n,) = struct.unpack_from("<I", id_and_count, id_len)
            claim(n * row_size)
            rows = out[eid] = np.empty((n, width), dtype=dtype)
            if fh.readinto(rows) != rows.nbytes:  # the file shrank while being read
                raise ParseError(f"{path}: truncated {what} at excerpt {eid!r}")
        if pos != size:
            raise ParseError(f"{path}: {size - pos} bytes after the last record")
    if len(out) != count or list(out) != sorted(out):
        # write_records writes each id once, in sorted order
        raise ParseError(f"{path}: excerpt ids are not unique and in ascending order")
    return out


def load_metadata(path) -> Corpus:
    """Read a metadata CSV into a Corpus whose labels are in order of first
    appearance in the file."""
    path = Path(path)
    rows = []
    with open_text(path, "metadata CSV") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file, expected header "
                             f"{','.join(METADATA_HEADER)}") from None
        if [h.strip() for h in header] != METADATA_HEADER:
            raise ParseError(f"{path}: bad header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            rows.append((lineno, row))

    excerpts = []
    for lineno, (eid, label, artist, title) in rows:
        eid = eid.strip()
        if not eid:
            raise ParseError(f"{path}:{lineno}: empty id")
        excerpts.append(Excerpt(
            id=eid,
            label=label.strip(),
            artist=artist.strip() or None,
            title=title.strip() or None,
        ))
    return Corpus(labels=tuple(dict.fromkeys(ex.label for ex in excerpts)),
                  excerpts=tuple(excerpts))


def load_tags(path, corpus: Corpus) -> dict[str, TagCountSet]:
    """Read a tag snapshot JSON file keyed by excerpt id.

    Tags are lower-cased and whitespace-collapsed; zero-count entries are
    dropped; duplicate tags are merged by summing counts. An entry's
    ``source`` must be one of ``TAG_SOURCES``; nothing else reads it.
    """
    entries = read_json(path, "tag snapshot")
    if not isinstance(entries, list):
        raise ParseError(f"{path}: expected a JSON array")

    result: dict[str, TagCountSet] = {}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or "id" not in entry:
            raise ParseError(f"{path}: entry {i} is not an object with an 'id'")
        eid = entry["id"]
        if not isinstance(eid, str):
            raise ParseError(f"{path}: entry {i}: 'id' is not a string")
        if eid not in corpus:
            raise UnknownExcerptError(f"{path}: entry {i}: unknown excerpt id {eid!r}")
        source = entry.get("source", "song")
        if source not in TAG_SOURCES:
            raise ParseError(f"{path}: entry {i}: bad source {source!r}")
        tag_objs = entry.get("tags", [])
        if not isinstance(tag_objs, list):
            raise ParseError(f"{path}: entry {i}: 'tags' is not an array")
        # duplicate snapshot entries for one excerpt merge into one set
        merged: dict[str, int] = dict(result[eid].pairs) if eid in result else {}
        for tag_obj in tag_objs:
            if not isinstance(tag_obj, dict) or not {"tag", "count"} <= tag_obj.keys():
                raise ParseError(f"{path}: entry {i}: tag object needs a 'tag' and a 'count'")
            tag = normalize_text(str(tag_obj["tag"]))
            count = tag_obj["count"]
            if not isinstance(count, int) or isinstance(count, bool):
                raise ParseError(f"{path}: entry {i}: non-integer count {count!r}")
            if count < 0:
                raise ParseError(f"{path}: entry {i}: negative count {count}")
            if count == 0 or not tag:
                continue
            merged[tag] = merged.get(tag, 0) + count
        result[eid] = TagCountSet(owner=eid, pairs=tuple(sorted(merged.items())))
    return result


# RIFF WAVE sample types load_audio reads, by (format tag, bits per sample):
# PCM 16-bit and IEEE float 32/64-bit, little-endian
WAV_SAMPLE_TYPES = {(1, 16): np.dtype("<i2"), (3, 32): np.dtype("<f4"), (3, 64): np.dtype("<f8")}
WAV_FORMAT_EXTENSIBLE = 0xFFFE
# a WAVE_FORMAT_EXTENSIBLE subformat GUID is the format tag, then these 12 bytes
WAV_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def load_audio(excerpt: Excerpt) -> np.ndarray:
    """Load an excerpt's ``SAMPLE_RATE`` WAV file as float64 samples in [-1, 1].

    The file is a little-endian RIFF WAVE file, mono, PCM 16-bit or IEEE
    float 32/64-bit, also under ``WAVE_FORMAT_EXTENSIBLE``; see
    ``_read_wav_samples``. Anything else is a ``FormatError`` naming the
    file. A float file holding a nan or infinite sample is one too: its
    spectrogram would have no median, so it could never be fingerprinted.
    """
    if excerpt.audio_path is None:
        raise IoError(f"excerpt {excerpt.id!r} has no audio path")
    path = Path(excerpt.audio_path)
    with reading(path, "audio file"), path.open("rb") as fh:
        data = _read_wav_samples(fh, path)
    if data.dtype.kind == "i":
        # one pass, no int-to-float temporary; scaling by 2**-15 is exact
        return np.multiply(data, 2.0**-15, dtype=np.float64)
    finite = np.isfinite(data)
    if not finite.all():
        at = int(np.argmin(finite))
        raise FormatError(f"{path}: sample {at} is {data[at]}, not a finite number")
    return data.astype(np.float64)


def _read_wav_samples(fh, path) -> np.ndarray:
    """The samples of the mono ``SAMPLE_RATE`` WAV file open in ``fh``, in
    the file's own sample type, one of ``WAV_SAMPLE_TYPES``.

    Chunks are read in order up to the ``data`` chunk, which must follow
    a ``fmt `` chunk; any other chunk is skipped, with its pad byte when
    its size is odd, and nothing after ``data`` is read. The RIFF size
    field is not checked. A ``data`` chunk that claims more bytes than the
    file holds yields the whole samples present, as does one whose size
    is not a multiple of the sample size. The samples are read straight
    into the returned array. RIFX, RF64, a missing chunk, a truncated
    header and every other channel count, rate or sample format are a
    ``FormatError`` naming ``path``.
    """
    if fh.read(4) != b"RIFF" or len(fh.read(4)) < 4 or fh.read(4) != b"WAVE":
        raise FormatError(f"{path}: not a little-endian RIFF WAVE file")
    fmt = None
    while True:
        header = fh.read(8)
        if len(header) < 8:
            raise FormatError(f"{path}: no {'data' if fmt else 'fmt'} chunk")
        chunk_id, size = struct.unpack("<4sI", header)
        if chunk_id == b"data":
            break
        skip = size + (size & 1)
        if chunk_id == b"fmt ":
            body = fh.read(min(size, 40))
            skip -= len(body)
            if len(body) < 16:
                raise FormatError(f"{path}: fmt chunk of {len(body)} bytes, need 16")
            fmt = struct.unpack_from("<HHIIHH", body)
            # the extension's size, valid bits and channel mask, then the GUID
            if (fmt[0] == WAV_FORMAT_EXTENSIBLE and len(body) == 40
                    and struct.unpack_from("<H", body, 16)[0] >= 22
                    and body[28:] == WAV_GUID_TAIL):
                fmt = (struct.unpack_from("<I", body, 24)[0], *fmt[1:])
        fh.seek(skip, os.SEEK_CUR)
    if fmt is None:
        raise FormatError(f"{path}: data chunk before the fmt chunk")
    tag, channels, rate, _, block_align, bits = fmt
    if channels != 1:
        raise FormatError(f"{path}: expected mono, got {channels} channels")
    if rate != SAMPLE_RATE:
        raise FormatError(f"{path}: sample rate {rate}, expected {SAMPLE_RATE}")
    dtype = WAV_SAMPLE_TYPES.get((tag, bits))
    if dtype is None or block_align != dtype.itemsize:
        raise FormatError(f"{path}: unsupported sample format (format tag {tag:#06x}, "
                          f"{bits} bits, block align {block_align}); expected PCM 16-bit "
                          "or IEEE float 32/64-bit")
    present = os.fstat(fh.fileno()).st_size - fh.tell()
    data = np.empty(min(size, present) // dtype.itemsize, dtype=dtype)
    if fh.readinto(data) != data.nbytes:  # the file shrank while being read
        raise FormatError(f"{path}: truncated data chunk")
    return data
