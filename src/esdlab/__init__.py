"""Limiting spectral distributions of generalized Wigner matrices.

The theory side enumerates special symmetric words (equivalently colored
rooted trees) and turns kernel families, of which a cumulant schedule is
the constant case, into limit moment sequences; the lab side samples the
matching matrix ensembles and measures their spectra. The CLI and the
comparison tools tie the two together.

Every export and submodule is loaded on first access (PEP 562):
``import esdlab`` imports nothing else, and ``esdlab.enumerate_ss`` or
``esdlab.moment_graphon`` loads no numpy. numpy comes in where arrays begin:
with ``esdlab.quadrature`` and ``esdlab.spectra``, or the first
expression evaluated on arrays, sample or quadrature node a call builds.
"""

import importlib

# submodule -> the names the package exports from it
_EXPORTS = {
    "cells": "",
    "circuits": "CircuitCount classify_occurrences count_circuits ratio_table",
    "combinatorics": "SSClassification Word catalan classify count_ss_by_blocks enumerate_nc2 "
                     "enumerate_partitions_brute enumerate_ss is_even is_special_symmetric "
                     "is_symmetric partition_from_word word_from_partition",
    "compare": "ComparisonReport compare_series theory_series_from_config",
    "errors": "CapacityError NumericError ValidationError",
    "expressions": "compile_expression",
    "graphons": "CumulantSchedule Graphon GraphonFamily block_family profile_family",
    "models": "DEFAULT_SEED ModelSpec effective_cumulants sample truncate",
    "moments": "CarlemanReport MomentEntry MomentSeries carleman_partial_sum graphon_series "
               "moment_graphon",
    "quadrature": "",
    "spectra": "Histogram eesd_moments eigenvalues empirical_moments histogram "
               "replicate_esds semicircle_density spectral_moments wasserstein2",
    "trees": "ColoredTree enumerate_trees tree_from_word word_from_tree",
    "treesum": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
# modules reachable as attributes that export nothing to ``from esdlab import *``
_UNLISTED = ("cli", "defaults")

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS or name in _UNLISTED:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_UNLISTED})
