"""Run one esdlab CLI command with timers around the public functions of each layer.

Usage: python3 -X importtime bench/tracer.py TRACE_JSON ARG...

The ARGs go to esdlab's command line unchanged. Each wrapper replaces a
function under the name its caller looks it up by (esdlab.moments binds
integrate_edge_product and enumerate_trees itself, esdlab.spectra binds
sample), so the program's code is not touched. Calls are kept in memory as
spans (name, start, end, parent) and per-name totals, and written to
TRACE_JSON when the command ends. Generators are timed only while they run,
not while their caller consumes what they yield. The import times come from
-X importtime on stderr and are read by run.py.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import esdlab  # noqa: F401  (the import -X importtime measures)
from esdlab import circuits, cli, combinatorics, graphons, models, moments, spectra, trees

_now = time.perf_counter
_lock = threading.Lock()
_local = threading.local()

spans: list[tuple] = []  # (name, start, end, parent index, attributes)
totals: dict[str, dict[str, float]] = {}
graphon_trees: list[list] = []  # trees each moment_graphon call visited


def _add(name: str, seconds: float, **counts: float) -> None:
    with _lock:
        entry = totals.setdefault(name, {"calls": 0, "time_s": 0.0})
        entry["calls"] += 1
        entry["time_s"] += seconds
        for key, value in counts.items():
            entry[key] = entry.get(key, 0) + value


def _stack() -> list[int]:
    if not hasattr(_local, "stack"):
        _local.stack = []
    return _local.stack


def _span(name: str, fn, attributes=None, hot: bool = False):
    """Wrap fn so each call is timed; ``hot`` functions only add to totals."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hot:
            start = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                _add(name, _now() - start)
        stack = _stack()
        with _lock:
            index = len(spans)
            spans.append(None)
        stack.append(index)
        start = _now()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = _now()
            stack.pop()
            extra = attributes(args, kwargs, result) if attributes else {}
            spans[index] = (name, start, end, stack[-1] if stack else None, extra)
            _add(name, end - start)
    return wrapper


def _generator(name: str, fn, on_item=None):
    """Wrap a generator function, timing only the work inside next()."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        items, busy = 0, 0.0
        inner = fn(*args, **kwargs)
        try:
            while True:
                start = _now()
                try:
                    item = next(inner)
                except StopIteration:
                    busy += _now() - start
                    return
                busy += _now() - start
                items += 1
                if on_item:
                    on_item(item)
                yield item
        finally:
            _add(name, busy, items=items)
    return wrapper


def _patch(module, attribute: str, make) -> None:
    """Replace module.attribute by make(original) where the module has it."""
    original = getattr(module, attribute, None)
    if original is not None:
        setattr(module, attribute, make(original))


def _in_sample() -> bool:
    return getattr(_local, "sampling", 0) > 0


def _count_in_sample(name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if _in_sample():
            _add(name, 0.0)
        return fn(*args, **kwargs)
    return wrapper


def _sample(fn):
    traced = _span("models.sample", fn,
                   lambda a, kw, r: {"variant": a[0].variant, "n": a[0].n})

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _local.sampling = getattr(_local, "sampling", 0) + 1
        try:
            return traced(*args, **kwargs)
        finally:
            _local.sampling -= 1
    return wrapper


def _moment_constant(fn):
    """Time each call cold or warm; after a cold call, time the same call warm."""
    cache = getattr(moments, "_block_size_profiles", None)
    misses = getattr(cache, "cache_info", None)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = misses().misses if misses else None
        start = _now()
        result = fn(*args, **kwargs)
        seconds = _now() - start
        cold = before is None or misses().misses > before
        _add("moments.moment_constant.cold" if cold else "moments.moment_constant.warm", seconds)
        if cold:
            start = _now()
            fn(*args, **kwargs)
            _add("moments.moment_constant.warm", _now() - start)
        return result
    return wrapper


def _moment_graphon(fn):
    traced = _span("moments.moment_graphon", fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _local.graphon_trees = []
        try:
            return traced(*args, **kwargs)
        finally:
            graphon_trees.append(_local.graphon_trees)
            _local.graphon_trees = None
    return wrapper


def _keep_graphon_tree(tree) -> None:
    kept = getattr(_local, "graphon_trees", None)
    if kept is not None:
        kept.append(tree)


def _integration(a, kw, result):
    config = a[3] if len(a) > 3 else kw.get("config", moments.DEFAULT_CONFIG)
    points = 0
    if result is not None and result.method == "qmc":
        points = getattr(config, "qmc_replicates", 0) * 2 ** getattr(config, "qmc_log2_points", 0)
    return {"method": result.method if result is not None else "error", "qmc_points": points}


def install() -> None:
    enumerate_trees = _generator("trees.enumerate_trees", trees.enumerate_trees, _keep_graphon_tree)
    trees.enumerate_trees = enumerate_trees
    _patch(moments, "enumerate_trees", lambda fn: enumerate_trees)
    _patch(trees, "word_from_tree", lambda fn: _span("trees.word_from_tree", fn, hot=True))
    enumerate_ss = _generator("combinatorics.enumerate_ss", combinatorics.enumerate_ss)
    combinatorics.enumerate_ss = enumerate_ss
    _patch(moments, "enumerate_ss", lambda fn: enumerate_ss)
    _patch(combinatorics, "count_ss_by_blocks",
           lambda fn: _span("combinatorics.count_ss_by_blocks", fn))
    _patch(moments, "moment_constant", _moment_constant)
    _patch(moments, "moment_sparse", lambda fn: _span("moments.moment_sparse", fn))
    _patch(moments, "moment_graphon", _moment_graphon)
    _patch(moments, "integrate_edge_product",
           lambda fn: _span("quadrature.integrate_edge_product", fn, _integration))
    _patch(circuits, "count_circuits", lambda fn: _span("circuits.count_circuits", fn))
    _patch(spectra, "sample", _sample)
    _patch(cli, "sample", _sample)
    _patch(spectra, "eigenvalues", lambda fn: _span("spectra.eigenvalues", fn))
    for module in (spectra, cli):
        _patch(module, "empirical_moments", lambda fn: _span("spectra.empirical_moments", fn))
    _patch(cli, "theory_series_from_config",
           lambda fn: _span("compare.theory_series_from_config", fn))
    for module in (models, graphons):
        _patch(module, "compile_expression",
               lambda fn: _count_in_sample("expressions.compile_in_sample", fn))
    graphons.Graphon.__init__ = _count_in_sample("graphons.construct_in_sample",
                                                 graphons.Graphon.__init__)


def _signatures(visited: list) -> int:
    """Distinct (parent color, child color, edge count) sets among the visited trees."""
    return len({tuple(sorted(tree.edge_multiplicities().items())) for tree in visited})


def main(argv: list[str]) -> int:
    path, cli_args = argv[0], argv[1:]
    install()
    start = _now()
    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        wall = _now() - start
        document = {
            "command_s": wall,
            "totals": totals,
            "graphon_calls": [{"trees": len(v), "signatures": _signatures(v)} for v in graphon_trees],
            "spans": [s for s in spans if s is not None],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(document, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
