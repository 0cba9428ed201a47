"""Walk through a tag-based label audit on a small synthetic corpus.

Three labels get distinct listener-tag vocabularies; one excerpt is
planted with the wrong label. The demo builds the label profiles, prints
the paired score matrix with its significance margins, and shows the
planted excerpt being flagged by the high_other rule.
"""

import numpy as np

from corpusaudit import tagscore
from corpusaudit.corpus import Corpus, Excerpt

SEED = 11

VOCAB = {
    "amber": ["warm", "mellow", "acoustic", "folk"],
    "slate": ["cold", "electronic", "synth", "ambient"],
    "coral": ["upbeat", "dance", "pop", "bright"],
}


def fake_tags(rng, vocab):
    """(tag, count) pairs dominated by the given vocabulary plus stray tags."""
    pairs = [(t, int(rng.integers(40, 100))) for t in vocab]
    for stray in rng.choice(["live", "favorite", "loud"], size=2, replace=False):
        pairs.append((str(stray), int(rng.integers(1, 10))))
    return tuple(pairs)


def main():
    rng = np.random.default_rng(SEED)
    excerpts, tags = [], {}
    for label, vocab in VOCAB.items():
        for i in range(5):
            eid = f"{label}.{i:03d}"
            excerpts.append(Excerpt(id=eid, label=label, artist=f"artist {eid}"))
            tags[eid] = fake_tags(rng, vocab)
    # the plant: carries slate's label, mostly amber's tags, a few of its own
    tags["slate.004"] = fake_tags(rng, VOCAB["amber"]) + (("electronic", 30), ("ambient", 20))
    corpus = Corpus(labels=tuple(VOCAB), excerpts=tuple(excerpts))

    profiles = []
    for label in corpus.labels:
        owned = [tags[ex.id] for ex in corpus.with_label(label)]
        p = tagscore.label_profile(label, owned)
        top = ", ".join(f"{t} ({w:.2f})" for t, w in p.top.pairs)
        print(f"profile {label}: coverage {p.top.coverage:.1%}; top tags: {top}")
        profiles.append(p)

    matrix = tagscore.score_matrix(profiles)
    print("\npaired label scores (row label's tags vs column profile):")
    header = "        " + "".join(f"{l:>8}" for l in matrix.labels)
    print(header + "   margin")
    for g, label in enumerate(matrix.labels):
        row = "".join(f"{matrix.scores[g, r]:8.3f}" for r in range(len(matrix.labels)))
        print(f"{label:>8}{row}   {matrix.deltas[g]:.4f}")

    print("\nscoring every excerpt against every profile:")
    verdicts = tagscore.detect_mislabelings(corpus, tags, matrix)
    flagged = [v for v in verdicts if v.flagged]
    for v in flagged:
        print(f"  FLAG {v.excerpt_id} ({v.label}): own score {v.own_score:.3f}, "
              f"best other {v.best_other_label} at {v.best_other_score:.3f} "
              f"[rule: {v.rule}]")
    assert [v.excerpt_id for v in flagged] == ["slate.004"]
    print("\nonly the planted excerpt was flagged; its amber score beats "
          "its own slate score by more than slate's margin.")


if __name__ == "__main__":
    main()
