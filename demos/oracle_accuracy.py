"""Measure each approximation's distance from the exact score.

On instances small enough to enumerate every completion of the hidden
column, we can score the *true* log marginal likelihood and treat each
approximation's absolute gap as its error.  This script repeats that over a
batch of seeded instances and reports the mean gap per measure, then breaks
the instances down by where the fitted mode landed.

The breakdown is the interesting part: the quadratic expansion behind the
laplace measure is excellent when the fitted mode is interior (all
probabilities comfortably inside (0, 1)) and degrades when the mode presses
against the simplex boundary, where the posterior is far from Gaussian.

Run: python3 demos/oracle_accuracy.py  (about half a minute)
"""

import numpy as np

import latentscore as ls

N_LEAVES = 3
C_FIT = 2
N_SAMPLES = 10
SEEDS = range(163, 183)

gaps = {m: [] for m in ls.MEASURES}
edge = []

for seed in SEEDS:
    spec = ls.binary_spec(N_LEAVES, C_FIT)
    truth = ls.generate_model(spec, ls.SeededStream(seed, 0))
    data = ls.strip_hidden(
        ls.sample_dataset(truth, N_SAMPLES, ls.SeededStream(seed, 1)))
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
    # distance of the mode from the simplex boundary, over all table entries
    edge.append(min(float(np.min(t)) for t in em.params.tables))

print(f"{len(list(SEEDS))} instances: {N_LEAVES} binary leaves, "
      f"hidden arity {C_FIT}, N={N_SAMPLES}")
print()
print("mean |measure - oracle| in nats (lower is better):")
for m in ls.MEASURES:
    print(f"  {m:>8}: {np.nanmean(gaps[m]):6.3f}")

print()
lap = np.asarray(gaps["laplace"])
off = [i for i, e in enumerate(edge) if e >= 0.005]
hugging = [i for i, e in enumerate(edge) if e < 0.005]
print("laplace gap split by the smallest entry in the fitted tables:")
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
print("picture of the posterior, and at this tiny N that costs nats.")
