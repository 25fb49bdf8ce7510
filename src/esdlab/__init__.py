"""Limiting spectral distributions of generalized Wigner matrices.

The theory side enumerates special symmetric words (equivalently colored
rooted trees) and turns kernel families, of which a cumulant schedule is
the constant case, into limit moment sequences; the lab side samples the
matching matrix ensembles and measures their spectra. The CLI and the
comparison tools tie the two together.
"""

from .circuits import CircuitCount, classify_occurrences, count_circuits, ratio_table
from .combinatorics import (SSClassification, Word, catalan, classify, count_ss_by_blocks,
                            enumerate_nc2, enumerate_partitions_brute, enumerate_ss,
                            is_even, is_special_symmetric, is_symmetric,
                            partition_from_word, word_from_partition)
from .errors import CapacityError, NumericError, ValidationError
from .expressions import compile_expression
from .graphons import CumulantSchedule, Graphon, GraphonFamily, band_indicator
from .models import (DEFAULT_SEED, ModelSpec, SampledMatrix, effective_cumulants, read_matrix,
                     sample, truncate, write_matrix, write_matrix_csv)
from .moments import (CarlemanReport, MomentEntry, MomentSeries, carleman_partial_sum,
                      graphon_series, hankel_min_eigenvalue, homomorphism_density, moment_band,
                      moment_block, moment_constant, moment_graphon, moment_sparse,
                      moment_variance_profile, sparse_series)
from .quadrature import IntegralResult, QuadratureConfig
from .spectra import (ESD, Histogram, eesd_moments, eigenvalues, empirical_moment,
                      empirical_moments, histogram, replicate_esds, semicircle_density,
                      spectral_moments, wasserstein2)
from .trees import ColoredTree, enumerate_trees, tree_from_word, validate_tree, word_from_tree
from .compare import ComparisonReport, compare_series, theory_series_from_config

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
