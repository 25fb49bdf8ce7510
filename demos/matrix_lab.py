"""
Sampling ensembles and checking spectra against theory
======================================================

Each model is a declarative spec (variant, size, seed, parameters); sampling
is deterministic given the spec, row by row, so replicated runs agree bit for
bit. Spectral moments averaged over replicates get standard errors, which
gives the z-scores for a theory comparison.
"""

import numpy as np

from esdlab import (
    CumulantSchedule,
    ModelSpec,
    compare_series,
    eesd_moments,
    eigenvalues,
    graphon_series,
    histogram,
    sample,
    semicircle_density,
    wasserstein2,
)

# one gaussian draw: symmetric, entries at scale 1/sqrt(n)
spec = ModelSpec("gaussian_wigner", 400, seed=2024)
drawn = sample(spec)
print("matrix:", drawn.shape, "symmetric:", bool(np.array_equal(drawn, drawn.T)))

# its spectrum against the semicircle density, as a text profile
hist = histogram(eigenvalues(drawn), bins=13)
mids = 0.5 * (hist.edges[:-1] + hist.edges[1:])
print("\n  mid   empirical  semicircle")
for mid, dens in zip(mids, hist.density):
    bar = "#" * int(round(40 * dens))
    print(f"{mid:+.2f} {dens:10.3f} {semicircle_density(np.array([mid]))[0]:10.3f}  {bar}")

# averaged moments over 20 replicates vs the sparse limit, the constant schedule 2
spec = ModelSpec("sparse_homogeneous", 500, seed=7, params={"rate": 2.0})
simulated = eesd_moments(spec, 6, replicates=20)
report = compare_series(graphon_series(CumulantSchedule.constant(2.0), 6), simulated)
print("\nsparse rate=2, n=500, 20 replicates:")
print(report.format_table())

# spectra of nearby matrices stay close: the coupling bound in action
a = sample(ModelSpec("gaussian_wigner", 300, seed=5))
noise = sample(ModelSpec("gaussian_wigner", 300, seed=6))
b = a + 0.05 * noise
d2 = wasserstein2(eigenvalues(a), eigenvalues(b))
bound = np.sqrt(np.trace((a - b) @ (a - b)) / 300)
print(f"\nperturbed pair: d2 = {d2:.5f} <= trace bound {bound:.5f}")
