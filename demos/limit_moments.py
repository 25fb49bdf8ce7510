"""
Limiting moments from cumulant schedules and kernel families
============================================================

The even limiting moments beta_2k are sums over colored trees: each tree
contributes the product of its edge cumulants (flat models) or an integral
of kernel factors over [0,1]^colors (inhomogeneous models). Every model is a
kernel family built by esdlab.graphons (a schedule, a band, a block grid, a
variance profile), and moment_graphon(family, 2k) sums any of them. This
script computes moments for the standard model zoo, then the Carleman partial
sums of kernel bounds: the series whose divergence makes a moment sequence
pin down its distribution.
"""

import math

from esdlab import (
    CumulantSchedule,
    Graphon,
    GraphonFamily,
    block_family,
    carleman_partial_sum,
    count_ss_by_blocks,
    moment_graphon,
    profile_family,
)

# flat gaussian entries: the Catalan numbers, i.e. the semicircle law
sched = CumulantSchedule.semicircle()
print("semicircle:", [moment_graphon(sched, 2 * k).value for k in range(1, 6)])

# sparse Bernoulli(lambda/n) entries: a polynomial in lambda per order
# (a constant schedule: the tree with b colors weighs lam^b)
sparse = CumulantSchedule.constant(2.0)
print("sparse lam=2:", [moment_graphon(sparse, 2 * k).value for k in range(1, 4)])
print("  order 6 decomposition:", sorted(count_ss_by_blocks(6).items()),
      "-> 1*2 + 6*4 + 5*8 =", moment_graphon(sparse, 6).value)

# an inhomogeneous variance kernel; a polynomial in x and y is summed exactly
# by the cell rule, with no quadrature error
fam = GraphonFamily(entries={2: Graphon.from_expression("4*x*y")})
entry = moment_graphon(fam, 4)
print(f"\nkernel 4xy: beta_4 = {entry.value:.12f} ({entry.provenance}, "
      f"err {entry.error:.1e}); exact 8/3 = {8/3:.12f}")

# structured ensembles: band, block, variance profile, each a family builder
print("band alpha=0.25 periodic:",
      [moment_graphon(sched.banded(0.25, True), 2 * k).value for k in (1, 2, 3)])
print("block 2x2:",
      moment_graphon(block_family([0.25, 0.75], {2: [[2.0, 0.5], [0.5, 1.0]]}), 2).value)
print("profile sigma=0.5:",
      moment_graphon(profile_family(Graphon.constant(0.5), sched), 4).value)

# moment determinacy: alpha_2k sums the kernel bounds over the same colored
# trees, and Carleman's condition asks sum alpha_2k^(-1/2k) to diverge, as it
# does when the terms fall slower than 1/k (a log-log slope above -1)
factorials = {2 * k: float(math.factorial(2 * k)) for k in range(1, 9)}
print("\nCarleman partial sums (fitted log-log slope of the terms):")
for name, family in [
    ("semicircle", CumulantSchedule.semicircle()),
    ("sparse lam=2", CumulantSchedule.constant(2.0)),
    ("factorial growth", CumulantSchedule.from_dict(factorials)),
    ("squared factorial", CumulantSchedule.from_dict({o: m**2 for o, m in factorials.items()})),
]:
    report = carleman_partial_sum(family, 8)
    print(f"  {name:18s} slope={report.slope:+.2f} partial sum={report.partial_sums[-1]:.2f}")
