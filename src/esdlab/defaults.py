"""Defaults the command line shows in its help, defined once, without numpy.

Every command builds the full parser but loads only the modules it runs, so
the defaults those modules use live here.
"""

#: root seed of the command line's sampling
DEFAULT_SEED = 112358

#: replicates * n^3 flop-scale guard for simulated replicates: an upper bound, one full
#: eigensolve each (sparse replicates of compare are summed over walks, far cheaper)
DEFAULT_EESD_BUDGET = 4.0e12

#: largest number of assignments ``count_circuits`` may explore before it refuses
DEFAULT_CIRCUIT_BUDGET = 10**9
