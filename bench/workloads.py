"""The benchmark's workloads: esdlab CLI commands built from a seed, and their checks.

Each workload is a list of commands run one after another, each in a fresh
interpreter, as a user would run them. The seed picks model parameters and
the ``--seed`` passed to the program; it never changes how much work a
command does. Every check compares an output with a value computed in
oracles.py or with a property the method must have, never with a stored copy
of an earlier output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

import oracles

# |value - reference| may reach this many reported error estimates. A QMC error
# is the standard error of 16 replicates, so for a value resting on one
# integral the ratio follows Student's t with 15 degrees of freedom:
# P(|t| > 6) = 2.4e-5, against 1.2e-3 for a multiple of 4.
ERROR_MULTIPLE = 6.0
# z-score threshold of the compare checks, the program's own default
Z_LIMIT = 4.0
# the program's default --seed; the failing command uses it whatever the workload seed
PROGRAM_DEFAULT_SEED = 112358


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    error_ratio: Optional[float] = None

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its output.

    ``family`` names the kernel family of a theory command; the traced run
    files that command's per-layer numbers under it. ``known_fault`` marks a
    command that fails every time because of a named fault in the program.
    """

    label: str
    argv: tuple[str, ...]
    check: Callable[[Optional[dict], int], Outcome]
    family: Optional[str] = None
    known_fault: Optional[str] = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]

    @property
    def replicates(self) -> int:
        if "--reps" in self.argv:
            return int(self.argv[self.argv.index("--reps") + 1])
        return 1


def _close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _series(doc: dict, out: Outcome, two_k: int) -> list[dict]:
    entries = doc["series"]["entries"]
    out.require([e["two_k"] for e in entries] == list(range(2, two_k + 1, 2)),
                f"series orders are {[e['two_k'] for e in entries]}")
    return entries


def _checked(body: Callable[[dict, Outcome], None], expect_rc: int = 0):
    """Wrap a check body with the exit-code and JSON checks every command shares."""
    def check(doc: Optional[dict], rc: int) -> Outcome:
        out = Outcome()
        if rc != expect_rc:
            out.problems.append(f"exit code {rc}")
            return out
        if doc is None:
            out.problems.append("no JSON document on stdout")
            return out
        try:
            body(doc, out)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            out.problems.append(f"malformed output: {exc!r}")
        return out
    return check


# -- flat_theory -------------------------------------------------------------------

def _check_census(two_k: int):
    def body(doc, out):
        reference = oracles.census(two_k)
        got = {int(b): c for b, c in doc["by_blocks"].items()}
        for b, value in oracles.census_spot_values(two_k).items():
            out.require(got.get(b) == value, f"b={b}: {got.get(b)} != closed form {value}")
        out.require(got == reference, "census differs from the tree recursion")
        out.require(doc["count"] == sum(reference.values()), f"count {doc['count']}")
    return _checked(body)


def _decode_ss(word: str) -> Optional[int]:
    """Block count if ``word`` is special symmetric, by the stack walk; else None.

    A letter equal to the open node's color closes it, any other letter opens
    a child. The word is special symmetric when the walk closes and the
    coloring keeps each color at one depth under one parent color.
    """
    stack = ["root"]
    where: dict[str, tuple[int, str]] = {}
    for letter in word:
        if letter == stack[-1]:
            stack.pop()
            continue
        place = (len(stack), stack[-1])
        if where.setdefault(letter, place) != place:
            return None
        stack.append(letter)
    if stack != ["root"]:
        return None
    letters = list(dict.fromkeys(word))
    if letters != [chr(ord("a") + i) for i in range(len(letters))]:
        return None
    return len(letters)


def _check_ss_list(two_k: int):
    def body(doc, out):
        words = doc["words"]
        reference = oracles.census(two_k)
        out.require(doc["count"] == len(words) == sum(reference.values()),
                    f"count {doc['count']} with {len(words)} words")
        out.require(words == sorted(set(words)), "words are not distinct and sorted")
        blocks: dict[int, int] = {}
        for word in words:
            b = _decode_ss(word) if len(word) == two_k else None
            if b is None:
                out.problems.append(f"{word} is not special symmetric")
                return
            blocks[b] = blocks.get(b, 0) + 1
        out.require(blocks == reference, "listed words do not match the census")
    return _checked(body)


def _check_flat_moments(two_k: int, reference: Callable[[int], Fraction], exact: bool):
    def body(doc, out):
        for entry in _series(doc, out, two_k):
            want = reference(entry["two_k"])
            got = entry["beta"]
            ok = got == want if exact else _close(got, float(want))
            out.require(ok, f"beta_{entry['two_k']} = {got!r}, expected {float(want)!r}")
            out.require(entry["error_estimate"] == 0.0, "exact value with an error estimate")
            out.require(entry["provenance"] == "exact-combinatorial",
                        f"provenance {entry['provenance']}")
    return _checked(body)


def _check_abba(n_values: tuple[int, ...]):
    def body(doc, out):
        got = [(r["n"], r["count"], r["ratio_exact"]) for r in doc["results"]]
        want = [(n, n * n * (n - 1), str(Fraction(n * n * (n - 1), n**3))) for n in n_values]
        out.require(got == want, f"abba counts {got} != n^2 (n-1)")
    return _checked(body)


def flat_theory(seed: int) -> list[Command]:
    rng = random.Random(seed)
    lam = rng.choice((1.5, 2.0, 2.5, 3.0))
    atom = rng.choice((0.5, 0.75, 1.25))
    rate = rng.choice((1.0, 2.0, 3.0))
    program_seed = ("--seed", str(seed))
    semicircle = {"kind": "semicircle", "c2": 1.0}
    two_point = {"kind": "model", "spec": {"variant": "triangular_twopoint", "n": 1000, "seed": 1,
                                           "params": {"atom": atom, "rate": rate}}}
    frac_lam, frac_rate, frac_atom = Fraction(lam), Fraction(rate), Fraction(atom)

    def sparse_value(order: int) -> Fraction:
        return sum(c * frac_lam**b for b, c in oracles.census(order).items())

    def two_point_value(order: int) -> Fraction:
        return oracles.flat_moment(lambda o: frac_rate * frac_atom**o, order)

    n_values = (32, 64, 96)
    return [
        Command("ss16_by_blocks", ("ss", "16", "--by-blocks", *program_seed), _check_census(16)),
        Command("ss14_list", ("ss", "14", "--list", *program_seed), _check_ss_list(14)),
        Command("semicircle_16", ("moments", "--theory-json", json.dumps(semicircle),
                                  "--two-k", "16", *program_seed),
                _check_flat_moments(16, lambda o: Fraction(oracles.catalan(o // 2)), exact=True)),
        Command("sparse_16", ("moments", "--theory-json", json.dumps({"kind": "sparse", "rate": lam}),
                              "--two-k", "16", *program_seed),
                _check_flat_moments(16, sparse_value, exact=False)),
        Command("two_point_14", ("moments", "--theory-json", json.dumps(two_point),
                                 "--two-k", "14", *program_seed),
                _check_flat_moments(14, two_point_value, exact=False)),
        Command("circuits_abba", ("circuits", "abba", "--n-values", ",".join(map(str, n_values)),
                                  *program_seed), _check_abba(n_values)),
    ]


# -- kernel_theory -------------------------------------------------------------------

def _check_kernel(two_k: int, reference: Callable[[int], tuple[float, float]],
                  provenance: set[str]):
    """reference(order) -> (value, its own error); the program's value must lie
    within ERROR_MULTIPLE of its reported error plus the reference's error."""
    def body(doc, out):
        ratios = []
        for entry in _series(doc, out, two_k):
            want, want_error = reference(entry["two_k"])
            gap = abs(entry["beta"] - want)
            allowed = ERROR_MULTIPLE * entry["error_estimate"] + want_error + 1e-10 * max(1.0, abs(want))
            out.require(gap <= allowed,
                        f"beta_{entry['two_k']} = {entry['beta']!r} is {gap:.3g} from {want!r} "
                        f"(allowed {allowed:.3g})")
            out.require(entry["provenance"] in provenance, f"provenance {entry['provenance']}")
            if entry["error_estimate"] > 0:
                ratios.append(gap / entry["error_estimate"])
        out.error_ratio = max(ratios) if ratios else None
    return _checked(body)


def kernel_theory(seed: int) -> list[Command]:
    rng = random.Random(seed)
    alpha = rng.choice((0.2, 0.25, 0.3))
    periodic_alpha = rng.choice((0.1, 0.2, 0.3, 0.4))
    masses = rng.choice(((0.3, 0.7), (0.4, 0.6), (0.5, 0.5)))
    cells2 = [[round(rng.uniform(0.5, 2.0), 3), 0.0], [0.0, round(rng.uniform(0.5, 2.0), 3)]]
    cells2[0][1] = cells2[1][0] = round(rng.uniform(0.1, 1.0), 3)
    cells4 = [[round(rng.uniform(0.5, 3.0), 3), 0.0], [0.0, round(rng.uniform(0.5, 3.0), 3)]]
    cells4[0][1] = cells4[1][0] = round(rng.uniform(0.1, 1.0), 3)
    scale = rng.choice((1.5, 2.0, 2.5))
    program_seed = ("--seed", str(seed))
    quadrature = {"monte-carlo-integral", "quadrature", "exact-combinatorial"}
    exact = {"exact-combinatorial"}

    def moments(theory: dict, two_k: int) -> tuple[str, ...]:
        return ("moments", "--theory-json", json.dumps(theory), "--two-k", str(two_k), *program_seed)

    band = {"kind": "band", "alpha": alpha, "periodic": False}
    rank_one = {"kind": "profile", "sigma": "2*sqrt(x*y)"}
    block = {"kind": "block", "masses": list(masses), "cells": {"2": cells2, "4": cells4}}
    periodic = {"kind": "band", "alpha": periodic_alpha, "periodic": True}
    sparse_profile = {"kind": "model", "spec": {"variant": "sparse_inhomogeneous", "n": 1000,
                                                "seed": 1, "params": {"prob": f"{scale}*x*y/n"}}}
    return [
        Command("band_10", moments(band, 10),
                _check_kernel(10, lambda o: oracles.band_moment_with_error(alpha, o), quadrature),
                family="band"),
        Command("rank_one_10", moments(rank_one, 10),
                _check_kernel(10, lambda o: (float(oracles.rank_one_moment(o)), 0.0), quadrature),
                family="rank_one"),
        Command("block_12", moments(block, 12),
                _check_kernel(12, lambda o: (oracles.block_moment(masses, {2: cells2, 4: cells4}, o),
                                             0.0), exact),
                family="block"),
        Command("periodic_band_12", moments(periodic, 12),
                _check_kernel(12, lambda o: (oracles.catalan(o // 2) * (2 * periodic_alpha) ** (o // 2),
                                             0.0), exact),
                family="periodic_band"),
        Command("sparse_inhomogeneous_8", moments(sparse_profile, 8),
                _check_kernel(8, lambda o: (oracles.polynomial_kernel_moment(
                    lambda x, y: scale * x * y, lambda order: True, o), 0.0), quadrature),
                family="sparse_inhomogeneous"),
    ]


# -- lab ------------------------------------------------------------------------------

def _histogram_moment_gap(hist: dict, k: int) -> tuple[float, float]:
    """Moment k of the histogram's bin midpoints, and the most binning can move it."""
    edges = np.asarray(hist["edges"], dtype=float)
    counts = np.asarray(hist["counts"], dtype=float)
    left, right = edges[:-1], edges[1:]
    mid = 0.5 * (left + right)
    spread = np.maximum.reduce([np.abs(left**k - mid**k), np.abs(right**k - mid**k),
                                np.abs(mid**k) * (left * right <= 0)])
    total = counts.sum()
    return float(counts @ mid**k / total), float(counts @ spread / total)


def _check_spectrum(reps: int, n: int, radius: float):
    """Moments and histogram of simulate; eigenvalues too when it embeds them."""
    def body(doc, out):
        moments = doc["moments"]
        hist = doc["histogram"]
        out.require(doc["replicates"] == reps, f"replicates {doc['replicates']}")
        out.require([m["k"] for m in moments] == list(range(1, 7)), "moment orders 1..6")
        out.require(sum(hist["counts"]) == reps * n, f"histogram holds {sum(hist['counts'])} values")
        out.require(-radius <= hist["edges"][0] and hist["edges"][-1] <= radius,
                    f"spectrum [{hist['edges'][0]:.3f}, {hist['edges'][-1]:.3f}] leaves +-{radius}")
        for m in moments:
            center, slack = _histogram_moment_gap(hist, m["k"])
            out.require(abs(m["value"] - center) <= slack + 1e-12,
                        f"moment {m['k']} = {m['value']!r} outside its histogram bound")
        if "eigenvalues" in doc:
            values = np.asarray(doc["eigenvalues"], dtype=float)
            out.require(values.size == reps * n, f"{values.size} eigenvalues")
            for m in moments:
                power = values ** m["k"]
                want = float(power.mean())
                out.require(abs(m["value"] - want) <= 1e-9 * max(1.0, float(np.abs(power).mean())),
                            f"moment {m['k']} = {m['value']!r} but the reported eigenvalues "
                            f"give {want!r}")
    return _checked(body)


def _check_compare(reference: Callable[[int], float]):
    def body(doc, out):
        report = doc["report"]
        out.require(report["passed"], "report did not pass")
        for row in report["rows"]:
            z = row["z"]
            out.require(z is not None and abs(z) <= Z_LIMIT, f"z_{row['two_k']} = {z}")
            out.require(_close(row["beta_theory"], reference(row["two_k"])),
                        f"theory beta_{row['two_k']} = {row['beta_theory']!r}")
    return _checked(body)


def lab(seed: int) -> list[Command]:
    n = 1000
    size = ("--n", str(n))
    gaussian = json.dumps({"variant": "gaussian_wigner"})
    sparse_model = json.dumps({"variant": "sparse_homogeneous", "params": {"rate": 2.0}})
    profile_model = json.dumps({"variant": "variance_profile",
                                "params": {"profile": "0.5+0.5*x*y"}})
    census = {order: oracles.census(order) for order in (2, 4, 6)}
    program_seed = ("--seed", str(seed))
    return [
        Command("simulate_gaussian_10",
                ("simulate", "--model-json", gaussian, *size, "--reps", "10", *program_seed),
                _check_spectrum(10, n, 2.5)),
        Command("compare_sparse_30",
                ("compare", "--theory-json", json.dumps({"kind": "sparse", "rate": 2.0}),
                 "--model-json", sparse_model, *size, "--reps", "30", *program_seed),
                _check_compare(lambda o: float(sum(c * 2**b for b, c in census[o].items())))),
        Command("simulate_profile_3",
                ("simulate", "--model-json", profile_model, *size, "--reps", "3", *program_seed),
                _check_spectrum(3, n, 2.5)),
        Command("simulate_gaussian_1",
                ("simulate", "--model-json", gaussian, *size, "--reps", "1",
                 "--seed", str(PROGRAM_DEFAULT_SEED)),
                _check_spectrum(1, n, 2.5),
                known_fault="simulate --reps 1 takes its moments from another matrix than its "
                            "eigenvalues"),
    ]


WORKLOADS = {"flat_theory": flat_theory, "kernel_theory": kernel_theory, "lab": lab}

# the trivial command whose start-up time is setup_s
SETUP_ARGV = ("ss", "2")


def check_setup(doc: Optional[dict], rc: int) -> Outcome:
    return _checked(lambda d, out: out.require(d["count"] == 1, f"ss 2 count {d['count']}"))(doc, rc)


# kernel families of kernel_theory, and those whose values carry an error estimate
FAMILIES = ("band", "rank_one", "block", "periodic_band", "sparse_inhomogeneous")
ERROR_RATIO_FAMILIES = ("band", "rank_one", "sparse_inhomogeneous")
