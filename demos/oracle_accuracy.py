"""Measure each approximation's distance from the exact score.

The exact oracle sums the closed form over every completion of the hidden
column.  Records with the same observed pattern are exchangeable, so it
only has to count how each pattern's records split over the hidden states:
prod_k C(m_k + c - 1, c - 1) groups for patterns seen m_k times, instead
of c^N completions.  That reaches N=40 on these small models, where
exhaustive enumeration of 2^40 completions would not.  We score the *true*
log marginal likelihood of each instance and treat each approximation's
absolute gap as its error.  This script repeats that over a batch of
seeded instances at N=10 and at N=40 and reports the mean gap per measure,
then breaks the instances down by where the fitted mode landed.

The breakdown is the interesting part: the quadratic expansion behind the
laplace measure is excellent when the fitted mode is interior (all
probabilities comfortably inside (0, 1)) and degrades when the mode presses
against the simplex boundary, where the posterior is far from Gaussian.

Run: python3 demos/oracle_accuracy.py  (about ten seconds)
"""

import numpy as np

import latentscore as ls

N_LEAVES = 3
C_FIT = 2
SAMPLE_SIZES = (10, 40)
SEEDS = range(163, 183)


def gaps_at(n_samples):
    """Each measure's |measure - oracle| per seed, and each mode's smallest
    table entry (its distance from the simplex boundary)."""
    gaps = {m: [] for m in ls.MEASURES}
    edge = []
    for seed in SEEDS:
        spec = ls.binary_spec(N_LEAVES, C_FIT)
        truth = ls.generate_model(spec, ls.SeededStream(seed, 0))
        data = ls.strip_hidden(
            ls.sample_dataset(truth, n_samples, ls.SeededStream(seed, 1)))
        prior = ls.PriorSet.symmetric(spec, 1.01)
        em = ls.fit(data, spec, prior, config=ls.EmConfig(),
                    rng=ls.SeededStream(seed, 2))
        oracle = ls.oracle_exact(data, spec, prior)
        report = ls.score_report(em, data, prior)
        for m in ls.MEASURES:
            if m in report.scores:
                gaps[m].append(abs(report.scores[m] - oracle))
            else:
                gaps[m].append(float("nan"))
        edge.append(min(float(np.min(t)) for t in em.params.tables))
    return gaps, edge


results = {n: gaps_at(n) for n in SAMPLE_SIZES}

print(f"{len(SEEDS)} instances per N: {N_LEAVES} binary leaves, "
      f"hidden arity {C_FIT}")
print()
print("mean |measure - oracle| in nats (lower is better):")
print(" " * 11 + "".join(f"{f'N={n}':>8}" for n in SAMPLE_SIZES))
for m in ls.MEASURES:
    print(f"  {m:>8}:"
          + "".join(f"{np.nanmean(results[n][0][m]):8.3f}"
                    for n in SAMPLE_SIZES))

for n, (gaps, edge) in results.items():
    print()
    lap = np.asarray(gaps["laplace"])
    off = [i for i, e in enumerate(edge) if e >= 0.005]
    hugging = [i for i, e in enumerate(edge) if e < 0.005]
    print(f"N={n}: laplace gap split by the smallest entry in the fitted "
          f"tables:")
    for label, idx in (("min entry >= 0.005", off), ("min entry <  0.005",
                                                     hugging)):
        if idx:
            print(f"  {label}: {len(idx):2d} instances, "
                  f"mean laplace gap {np.nanmean(lap[idx]):.3f}")
    closest = int(np.argmax(edge))
    print(f"  most interior mode of the batch (seed "
          f"{list(SEEDS)[closest]}, min entry {edge[closest]:.3f}): "
          f"laplace gap {lap[closest]:.3f}")
print()
print("The quadratic expansion is at its best when the mode sits away from")
print("the boundary; modes with near-zero table entries break its Gaussian")
print("picture of the posterior, and at these small N that costs nats.")
