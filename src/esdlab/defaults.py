"""Defaults the command line shows in its help, defined once, without numpy.

``esdlab ss`` and ``esdlab circuits`` build the full parser but never load
the numpy-backed modules, so the defaults those modules use live here.
"""

#: root seed of the command line's sampling
DEFAULT_SEED = 112358

#: replicates * n^3 flop-scale guard for simulated replicates: an upper bound, one full
#: eigensolve each (sparse replicates of compare are summed over walks, far cheaper)
DEFAULT_EESD_BUDGET = 4.0e12

#: Gauss-Legendre nodes per variable for smooth kernels
DEFAULT_QUAD_POINTS = 32
