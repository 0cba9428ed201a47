"""Seeded synthetic inputs shaped like GTZAN, with planted faults.

Everything here is a pure function of the seed. The program under test
only ever sees the files written here; the planted truth is returned to
the benchmark so it can score the program's outputs.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from corpusaudit import features, synth

GENRES = ("blues", "classical", "country", "disco", "hiphop",
          "jazz", "metal", "pop", "reggae", "rock")
SAMPLE_RATE = 22050
HOP = 512
CLIP_SECONDS = 30.0
RECUT_SHARE = 0.1


@dataclass
class AudioCorpus:
    metadata: Path
    audio_dir: Path
    ids: list[str]
    planted_pairs: set[tuple[str, str]]  # every pair inside a planted group


@dataclass
class EvalInputs:
    metadata: Path
    features: Path
    tags: Path
    dupes: Path
    distortions: Path
    ids: list[str]
    artist: dict[str, str | None]
    planted_mislabels: set[str]
    exclusions: set[str]            # what st-prime must drop
    sizes: dict = field(default_factory=dict)


def _write_metadata(path, rows):
    # ids, labels, artists and titles here never need CSV quoting
    lines = ["id,label,artist,title"]
    lines += [f"{eid},{label},{artist or ''},{title or ''}" for eid, label, artist, title in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _planted_groups(rng, n_originals, n_copies):
    """Bases for re-cuts: alternately a 3-member group (2 copies) and a pair.

    Returns {original index: number of re-cuts}.
    """
    bases = [int(i) for i in rng.choice(n_originals, size=n_copies, replace=False)]
    groups = {}
    while n_copies > 0:
        k = 2 if len(groups) % 2 == 0 and n_copies >= 2 else 1
        groups[bases.pop()] = k
        n_copies -= k
    return groups


def make_audio_corpus(root: Path, seed_key, n_clips: int,
                      duration: float = CLIP_SECONDS) -> AudioCorpus:
    """WAV clips from ``synth.tone_cloud`` plus planted ``delayed_copy`` re-cuts.

    About ``RECUT_SHARE`` of the clips (at least 3) are re-cuts. Each
    re-cut is delayed by a whole number of samples drawn uniformly from the
    full sub-hop range [1, HOP), so delays near half a hop, where the
    matcher is weakest, occur as often as any other; gains are uniform in
    [0.3, 1]. Clips are written as they are made, so only the re-cut bases
    stay in memory.
    """
    rng = np.random.default_rng(seed_key)
    audio_dir = root / "wav"
    audio_dir.mkdir(parents=True)
    n_copies = max(3, round(RECUT_SHARE * n_clips))
    groups = _planted_groups(rng, n_clips - n_copies, n_copies)
    per_label = {g: 0 for g in GENRES}
    rows, planted = [], set()

    def add(label, artist, title, samples):
        eid = f"{label}.{per_label[label]:05d}"
        per_label[label] += 1
        rows.append((eid, label, artist, title))
        pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype(np.int16)
        wavfile.write(audio_dir / f"{eid}.wav", SAMPLE_RATE, pcm)
        return eid

    bases = {}
    for k in range(n_clips - n_copies):
        label = GENRES[k % len(GENRES)]
        x = synth.tone_cloud(rng, duration=duration, sample_rate=SAMPLE_RATE)
        eid = add(label, f"artist {k:03d}", f"title {k:03d}", x)
        if k in groups:
            bases[k] = (eid, rows[-1], x)

    for k, (base, row, x) in sorted(bases.items()):
        group = [base]
        for _ in range(groups[k]):
            delay = int(rng.integers(1, HOP)) / SAMPLE_RATE
            gain = float(rng.uniform(0.3, 1.0))
            group.append(add(*row[1:], synth.delayed_copy(x, delay, gain, SAMPLE_RATE)))
        planted |= {tuple(sorted((a, b))) for i, a in enumerate(group) for b in group[i + 1:]}

    metadata = root / "metadata.csv"
    _write_metadata(metadata, rows)
    return AudioCorpus(metadata=metadata, audio_dir=audio_dir,
                       ids=[r[0] for r in rows], planted_pairs=planted)


def _tag_entry(rng, eid, vocab, shared):
    """Zipf-weighted tags from one label's vocabulary plus a few shared tags."""
    weights = 1.0 / np.arange(1, len(vocab) + 1)
    picks = rng.choice(len(vocab), size=int(rng.integers(3, 6)), replace=False,
                       p=weights / weights.sum())
    tags = [{"tag": vocab[i], "count": int(rng.integers(10, 100))} for i in picks]
    for i in rng.choice(len(shared), size=int(rng.integers(1, 3)), replace=False):
        tags.append({"tag": shared[i], "count": int(rng.integers(1, 20))})
    return {"id": eid, "source": "song" if rng.random() < 0.8 else "artist", "tags": tags}


# eval-grid shape: GTZAN's 10 labels, and 9 texture windows of 32 dims as
# `features extract` gives for a 30 s clip
N_WINDOWS = 9
COPY_SHARE = 0.03
MISLABEL_SHARE = 0.02
UNIDENTIFIED_SHARE = 0.05
ARTISTS_PER_LABEL = 12
N_DISTORTIONS = 10


def make_eval_inputs(root: Path, seed_key, per_label: int = 100) -> EvalInputs:
    """Feature CSV, metadata, tags, dupes and distortions for the eval grid.

    Texture vectors come from overlapping class clouds, one per label;
    planted exact copies duplicate another excerpt's vectors, artist and
    title, and appear in the dupes CSV. Planted mislabelings carry the
    tags of a different label.
    """
    rng = np.random.default_rng(seed_key)
    root.mkdir(parents=True, exist_ok=True)
    labels, n_windows, dim = GENRES, N_WINDOWS, features.N_TEXTURE_DIMS
    class_centers = rng.normal(0.0, 0.5, size=(len(labels), dim))
    rows, vectors, artist, label_of = [], {}, {}, {}
    copies = {}  # copy id -> original id
    n_copies = max(1, round(COPY_SHARE * per_label))
    for c, label in enumerate(labels):
        own = []
        for i in range(per_label):
            eid = f"{label}.{i:05d}"
            if i < per_label - n_copies:
                center = class_centers[c] + rng.normal(0.0, 1.0, size=dim)
                vectors[eid] = center + rng.normal(0.0, 0.3, size=(n_windows, dim))
                identified = rng.random() >= UNIDENTIFIED_SHARE
                art = f"{label} artist {int(rng.integers(ARTISTS_PER_LABEL)):02d}" \
                    if identified else None
                title = f"{label} title {i:05d}" if identified else None
                own.append(eid)
            else:
                orig = own[int(rng.integers(len(own)))]
                copies[eid] = orig
                vectors[eid] = vectors[orig].copy()
                art, title = artist[orig], next(r[3] for r in rows if r[0] == orig)
            rows.append((eid, label, art, title))
            artist[eid] = art
            label_of[eid] = label
    ids = [r[0] for r in rows]

    metadata = root / "metadata.csv"
    _write_metadata(metadata, rows)
    feats_path = root / "features.csv"
    features.write_feature_cache(feats_path, vectors)

    identified = [eid for eid in ids if artist[eid] is not None]
    plain = [eid for eid in identified if eid not in copies]
    n_mis = max(1, round(MISLABEL_SHARE * len(ids)))
    mislabeled = set(rng.choice(plain, size=n_mis, replace=False).tolist())
    vocab = {label: [f"{label} {k}" for k in range(6)] for label in labels}
    shared = ["favorites", "seen live", "awesome", "chill"]
    entries = []
    for eid in identified:
        source_label = label_of[eid]
        if eid in mislabeled:
            others = [lb for lb in labels if lb != source_label]
            source_label = others[int(rng.integers(len(others)))]
        entries.append(_tag_entry(rng, eid, vocab[source_label], shared))
    tags = root / "tags.json"
    tags.write_text(json.dumps(entries), encoding="utf-8")

    groups = {}
    for copy, orig in copies.items():
        groups.setdefault(orig, [orig]).append(copy)
    dupes = root / "dupes.csv"
    pairs = sorted(tuple(sorted((a, b))) for g in groups.values()
                   for i, a in enumerate(g) for b in g[i + 1:])
    dupes.write_text("id_a,id_b,score,offset_frames\n"
                     + "".join(f"{a},{b},1.000000,0\n" for a, b in pairs), encoding="utf-8")
    exclusions = {m for g in groups.values() for m in sorted(g)[1:]}

    distorted = rng.choice(plain, size=N_DISTORTIONS, replace=False).tolist()
    dist_entries = []
    for k, eid in enumerate(sorted(distorted)):
        prefix = float(np.round(rng.uniform(1.0, 4.5), 2)) if k % 2 == 0 else None
        dist_entries.append({"id": eid, "note": "clipped" if prefix is None else "dropout",
                             "usable_prefix_seconds": prefix})
        if prefix is not None:
            exclusions.add(eid)
    distortions = root / "distortions.json"
    distortions.write_text(json.dumps(dist_entries), encoding="utf-8")

    return EvalInputs(metadata=metadata, features=feats_path, tags=tags, dupes=dupes,
                      distortions=distortions, ids=ids, artist=artist,
                      planted_mislabels=mislabeled, exclusions=exclusions,
                      sizes={"labels": len(labels), "excerpts": len(ids), "windows": n_windows,
                             "dims": dim, "copies": len(copies), "mislabels": n_mis,
                             "tagged": len(identified), "distortions": N_DISTORTIONS})
