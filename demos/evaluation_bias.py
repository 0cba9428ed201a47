"""Show how exact repetitions inflate shuffled-split accuracy.

A synthetic two-class corpus gets 20 planted duplicate pairs. Under a
shuffled split (st), a duplicate often lands opposite its twin, which
hands nearest-neighbor a guaranteed hit; under the cleaned split
(st-prime) the duplicates are excluded. The demo measures both over ten
realizations for all three classifiers and runs the exact binomial test
on one pair of runs.
"""

import numpy as np

from corpusaudit import evaluate, synth
from corpusaudit.faults import build_catalog

SEED = 10
REALIZATIONS = 10


def mean_accuracy(corpus, features, scheme, kind, catalog=None):
    results = evaluate.run_realizations(corpus, scheme, kind, features, seed=SEED,
                                        realizations=REALIZATIONS, catalog=catalog)
    mean, sd = evaluate.accuracy_summary(results)
    return mean, sd, results


def main():
    corpus, features, pairs = synth.two_class_feature_corpus(
        n_per_class=90, n_duplicate_pairs=20, separation=0.6, seed=0)
    print(f"corpus: {len(corpus)} excerpts, {len(pairs)} exact duplicate pairs")

    catalog = build_catalog(corpus, exact_groups=pairs)
    print(f"fault catalog excludes {len(catalog.exclusions())} excerpts\n")

    kept = {}
    for kind in ("nn", "md", "mmd"):
        st, st_sd, st_res = mean_accuracy(corpus, features, "st", kind)
        stp, stp_sd, stp_res = mean_accuracy(corpus, features, "st-prime",
                                             kind, catalog=catalog)
        print(f"{kind:>4}: st {st:.4f} (sd {st_sd:.4f})   "
              f"st' {stp:.4f} (sd {stp_sd:.4f})   gap {st - stp:+.4f}")
        kept[kind] = (st_res, stp_res)

    # significance of the gap for nn on the shared (non-excluded) excerpts
    excluded = catalog.exclusions()
    st_res, stp_res = kept["nn"]
    p1 = [[p for p in res.predictions if p.excerpt_id not in excluded] for res in st_res]
    p2 = [res.predictions for res in stp_res]
    sig = evaluate.significance_test(p1, p2)
    verdict = "reject" if sig.reject else "fail to reject"
    print(f"\nbinomial test on nn (st vs st', shared excerpts only): "
          f"n={sig.n}, t12={sig.t12}, p={sig.p:.2e} -> {verdict} equal accuracy")
    print("\nnearest neighbor gains the most from leaked duplicates: a twin "
          "in the training fold is a zero-distance match, so every split "
          "duplicate is a guaranteed correct vote.")


if __name__ == "__main__":
    main()
