"""Benchmark for esdlab: times whole CLI commands, and traces them per layer.

Usage (from the repository root):

    python3 bench/run.py --workload flat_theory --seed 1 --seconds 30 --trace 0

Workloads are defined in workloads.py. A run first starts the program five
times on a trivial command (setup_s), then runs whole rounds of the
workload's commands until the next round would end after --seconds; there is
always at least one round. Each command runs alone in a fresh interpreter
on one thread (--parallel 1 and one BLAS thread), started by launcher.py;
its CPU time and peak RSS are read from that child alone with os.wait4.

With --trace 1 each command of a round runs twice, once plainly and once
under tracer.py, which times the public functions of each layer from
outside the program. The per-layer numbers come from the traced commands;
the tracing overhead is the traced minus the plain wall time of the same
commands.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. A command fails when it exits with an unexpected code or its output
does not pass its check; "correct" is false when a command other than the
one known to fail does so.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import Command, Outcome  # noqa: E402

SETUP_REPEATS = 5
# every command is killed after this many seconds from the start of the run
RUN_DEADLINE_S = 170.0
SAMPLED_VARIANTS = ("gaussian_wigner", "sparse_homogeneous", "variance_profile")
EXPRESSION_VARIANTS = ("variance_profile", "sparse_inhomogeneous")
QUADRATURE_METHODS = ("exact", "gauss", "qmc")
# Every command runs on one thread: on a 2-vCPU shared host, a worker pool on
# top of a multi-threaded BLAS measures the scheduler (and spin-waiting BLAS
# threads inflate cpu_s) as soon as another tenant takes a core.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PARALLEL_SUBCOMMANDS = ("moments", "simulate", "compare")


@dataclass
class Execution:
    command: Command
    traced: bool
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    outcome: Outcome
    trace: Optional[dict] = None
    imports: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.outcome.problems)


class Runner:
    """Runs commands through launcher.py and checks their outputs."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env.update(SINGLE_THREAD_ENV)
        self.serial = 0
        self.launcher = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                         stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def run(self, command: Command, traced: bool = False) -> Execution:
        self.serial += 1
        stem = OUT / f"{self.serial:03d}-{command.label}"
        trace_path = stem.with_suffix(".trace.json")
        if traced:
            argv = [sys.executable, "-X", "importtime", str(HERE / "tracer.py"), str(trace_path)]
        else:
            argv = [sys.executable, "-m", "esdlab.cli"]
        threads = ("--parallel", "1") if command.subcommand in PARALLEL_SUBCOMMANDS else ()
        request = {"argv": argv + [*command.argv, *threads, "--reproducible"], "cwd": str(ROOT),
                   "env": self.env, "stdout": str(stem.with_suffix(".out")),
                   "stderr": str(stem.with_suffix(".err")),
                   "timeout_s": max(1.0, self.deadline - time.monotonic())}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        outcome = command.check(_read_json(stem.with_suffix(".out")), reply["rc"])
        execution = Execution(command, traced, reply["wall_s"], reply["cpu_s"],
                              reply["maxrss_kb"] / 1024.0, reply["rc"], outcome)
        if traced:
            execution.trace = _read_json(trace_path)
            execution.imports = _import_times(stem.with_suffix(".err"))
            if execution.trace is None:
                outcome.problems.append("tracer wrote no trace")
        return execution


def _read_json(path: Path) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _import_times(stderr_path: Path) -> dict:
    """Cumulative seconds of the esdlab and scipy.stats imports, from -X importtime."""
    found = {}
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        for line in fh:
            if not line.startswith("import time:"):
                continue
            parts = line[len("import time:"):].split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name in ("esdlab", "scipy.stats") and name not in found:
                found[name] = int(parts[1]) / 1e6
    return found


# -- metrics ------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(setup: list[Execution], rounds: list[list[Execution]]) -> dict:
    return {
        "wall_s": _metric(statistics.median(sum(e.wall_s for e in r) for r in rounds), "s"),
        "cpu_s": _metric(statistics.median(sum(e.cpu_s for e in r) for r in rounds), "s"),
        "setup_s": _metric(statistics.median(e.wall_s for e in setup), "s"),
        "peak_rss_mb": _metric(statistics.median(max(e.rss_mb for e in r) for r in rounds), "MB"),
    }


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def per_layer(rounds: list[list[Execution]]) -> dict:
    """Per-layer totals over the traced commands, per round."""
    plain = [e for r in rounds for e in r if not e.traced]
    traced = [e for r in rounds for e in r if e.traced and e.trace]
    per_round = 1.0 / len(rounds)
    totals: dict[str, dict[str, float]] = {}
    for e in traced:
        for name, entry in e.trace["totals"].items():
            into = totals.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0.0) + value

    def total(name: str, key: str = "time_s") -> float:
        return totals.get(name, {}).get(key, 0.0)

    def span_sum(name: str, among=traced, where=lambda attrs: True, key=None) -> float:
        out = 0.0
        for e in among:
            for span_name, start, end, _parent, attrs in e.trace["spans"]:
                if span_name == name and where(attrs):
                    out += attrs.get(key, 0) if key else end - start
        return out

    m: dict[str, dict] = {}

    def put(name: str, value: float, unit: str) -> None:
        m[name] = _metric(value, unit)

    put("import.esdlab_s", statistics.median(e.imports.get("esdlab", 0.0) for e in traced), "s")
    put("import.scipy_stats_s",
        statistics.median(e.imports.get("scipy.stats", 0.0) for e in traced), "s")
    tree_time, tree_count = total("trees.enumerate_trees"), total("trees.enumerate_trees", "items")
    put("trees.enumerate_s", tree_time * per_round, "s")
    put("trees.count", tree_count * per_round, "count")
    put("trees.per_s", _ratio(tree_count, tree_time), "1/s")
    put("trees.word_from_tree_s", total("trees.word_from_tree") * per_round, "s")
    put("combinatorics.enumerate_ss_s", total("combinatorics.enumerate_ss") * per_round, "s")
    put("combinatorics.count_ss_by_blocks_s",
        total("combinatorics.count_ss_by_blocks") * per_round, "s")
    put("moments.moment_constant_cold_s", total("moments.moment_constant.cold") * per_round, "s")
    put("moments.moment_constant_warm_s", total("moments.moment_constant.warm") * per_round, "s")
    put("moments.moment_sparse_s", total("moments.moment_sparse") * per_round, "s")
    for family in workloads.FAMILIES:
        mine = [e for e in traced if e.command.family == family]
        calls = [c for e in mine for c in e.trace["graphon_calls"]]
        put(f"moments.moment_graphon_s.{family}",
            span_sum("moments.moment_graphon", mine) * per_round, "s")
        put(f"moments.trees_visited.{family}", sum(c["trees"] for c in calls) * per_round, "count")
        put(f"moments.unique_signatures.{family}",
            sum(c["signatures"] for c in calls) * per_round, "count")
    for method in QUADRATURE_METHODS:
        def by_method(attrs, method=method):
            return attrs.get("method") == method
        calls = sum(1 for e in traced for s in e.trace["spans"]
                    if s[0] == "quadrature.integrate_edge_product" and by_method(s[4]))
        put(f"quadrature.calls.{method}", calls * per_round, "count")
        put(f"quadrature.time_s.{method}",
            span_sum("quadrature.integrate_edge_product", where=by_method) * per_round, "s")
    put("quadrature.qmc_points",
        span_sum("quadrature.integrate_edge_product", key="qmc_points") * per_round, "count")
    for family in workloads.ERROR_RATIO_FAMILIES:
        ratios = [e.outcome.error_ratio for e in traced
                  if e.command.family == family and e.outcome.error_ratio is not None]
        put(f"quadrature.error_ratio.{family}", max(ratios, default=0.0), "ratio")
    put("circuits.count_circuits_s", total("circuits.count_circuits") * per_round, "s")
    for variant in SAMPLED_VARIANTS:
        def of_variant(attrs, variant=variant):
            return attrs.get("variant") == variant
        seconds = span_sum("models.sample", where=of_variant)
        rows = span_sum("models.sample", where=of_variant, key="n")
        put(f"models.sample_s.{variant}", seconds * per_round, "s")
        put(f"models.rows_per_s.{variant}", _ratio(rows, seconds), "1/s")
    # only these variants read an expression while sampling
    expression_samples = sum(1 for e in traced for s in e.trace["spans"] if s[0] == "models.sample"
                             and s[4].get("variant") in EXPRESSION_VARIANTS)
    put("expressions.compile_calls_per_sample",
        _ratio(total("expressions.compile_in_sample", "calls"), expression_samples), "ratio")
    put("graphons.constructions_per_sample",
        _ratio(total("graphons.construct_in_sample", "calls"), expression_samples), "ratio")
    put("spectra.eigenvalues_s", total("spectra.eigenvalues") * per_round, "s")
    put("spectra.empirical_moments_s", total("spectra.empirical_moments") * per_round, "s")
    simulate = [e for e in traced if e.command.subcommand == "simulate"]
    simulate_samples = sum(e.trace["totals"].get("models.sample", {}).get("calls", 0)
                           for e in simulate)
    put("spectra.samples_per_replicate",
        _ratio(simulate_samples, sum(e.command.replicates for e in simulate)), "ratio")
    put("spectra.eigensolves", total("spectra.eigenvalues", "calls") * per_round, "count")
    compare = [e for e in traced if e.command.subcommand == "compare"]
    put("compare.theory_series_s",
        span_sum("compare.theory_series_from_config", compare) * per_round, "s")
    put("package.source_lines", source_lines(), "lines")
    plain_wall = sum(e.wall_s for e in plain)
    overhead = sum(e.wall_s for e in traced) - plain_wall
    put("trace.overhead_s", overhead * per_round, "s")
    put("trace.overhead_share", _ratio(overhead, plain_wall), "ratio")
    return m


def source_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((SRC / "esdlab").rglob("*.py")))


# -- main -----------------------------------------------------------------------------

def _describe(e: Execution) -> str:
    status = "ok"
    if e.failed:
        status = ("FAILED (known fault: " + e.command.known_fault + ")"
                  if e.command.known_fault else "FAILED") + ": " + "; ".join(e.outcome.problems[:3])
    mode = "traced" if e.traced else "plain "
    return (f"  {e.command.label:<24} {mode} wall {e.wall_s:7.3f} s  cpu {e.cpu_s:7.3f} s  "
            f"rss {e.rss_mb:6.1f} MB  {status}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "esdlab" / "__init__.py").is_file():
        print(f"error: no esdlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    for stale in OUT.iterdir():
        if stale.is_file():
            stale.unlink()
    runner = Runner(started + RUN_DEADLINE_S)
    commands = workloads.WORKLOADS[args.workload](args.seed)
    setup_command = Command("setup", workloads.SETUP_ARGV, workloads.check_setup)

    try:
        setup = [] if args.trace else [runner.run(setup_command) for _ in range(SETUP_REPEATS)]
        rounds: list[list[Execution]] = []
        measure_start = time.monotonic()
        while True:
            round_start = time.monotonic()
            executions = []
            for command in commands:
                executions.append(runner.run(command))
                if args.trace:
                    executions.append(runner.run(command, traced=True))
            rounds.append(executions)
            now = time.monotonic()
            if now - measure_start + (now - round_start) > args.seconds:
                break
    finally:
        runner.close()

    done = [e for r in rounds for e in r]
    failed = [e for e in done if e.failed]
    correct = all(e.command.known_fault for e in failed) and not any(e.failed for e in setup)
    metrics = per_layer(rounds) if args.trace else end_to_end(setup, rounds)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"trace {args.trace}  nproc {os.cpu_count()}")
    for e in setup[:1] + done:
        print(_describe(e))
    for name, metric in metrics.items():
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}")
    print(f"  attempted {len(done)}  failed {len(failed)}  correct {correct}")
    with open(OUT / f"result-{args.workload}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "rounds": len(rounds),
                   "commands": [{"label": e.command.label, "traced": e.traced, "wall_s": e.wall_s,
                                 "cpu_s": e.cpu_s, "rss_mb": e.rss_mb, "rc": e.rc,
                                 "problems": e.outcome.problems} for e in setup + done],
                   "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(done), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
