"""Walk through a duplicate audit on synthetic clips.

Generates a handful of tone-cloud clips, plants two delayed-and-rescaled
copies, and shows how the landmark fingerprints recover exactly the
planted pairs while unrelated clips score near zero.
"""

import numpy as np

from corpusaudit import fingerprint, synth

SR = 22050
SEED = 7


def main():
    rng = np.random.default_rng(SEED)
    clips = {f"clip.{i:02d}": synth.tone_cloud(rng, duration=8.0, sample_rate=SR)
             for i in range(6)}
    # two re-cuts of existing clips: shifted in time and turned down
    clips["clip.00b"] = synth.delayed_copy(clips["clip.00"], 0.45, 0.7, SR)
    clips["clip.03b"] = synth.delayed_copy(clips["clip.03"], 1.10, 0.5, SR)

    print(f"fingerprinting {len(clips)} clips ...")
    hashsets = {eid: fingerprint.compute_fingerprint(x, owner=eid)
                for eid, x in clips.items()}
    for eid in sorted(hashsets):
        print(f"  {eid}: {len(hashsets[eid].hashes)} landmark hashes")

    print("\nall pairwise match scores above 0.05:")
    for ms in fingerprint.match_all(hashsets.values(), threshold=0.05):
        frames = f"{ms.offset_mode:+d} frames"
        print(f"  {ms.pair[0]} vs {ms.pair[1]}: score {ms.score:.3f}, "
              f"modal offset {frames} ({ms.offset_mode * 512 / SR:+.2f} s)")

    groups = fingerprint.find_exact_repetitions(hashsets.values(),
                                                threshold=fingerprint.DEFAULT_THRESHOLD)
    print(f"\nrepetition groups at threshold {fingerprint.DEFAULT_THRESHOLD}:")
    for g in groups:
        print(f"  {' == '.join(g)}")
    assert groups == [("clip.00", "clip.00b"), ("clip.03", "clip.03b")]
    print("\nexactly the two planted copies were found; "
          "a delay of half a hop and a 3 dB cut did not hide them.")


if __name__ == "__main__":
    main()
