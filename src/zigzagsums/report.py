"""Machine-readable verification reports over the cross-route identities.

A report is a flat list of checks, each with a unique id, a pass/fail
status, and printable expected/actual/tolerance fields.  Suites:

  exact       table reproductions and exact route agreements (no floats)
  numeric     float routes with analytic tolerances (series, quadrature)
  montecarlo  randomized volume estimates at 4 standard errors, retried
              once on seed+1 if any check misses
  spectral    Nystrom eigenvalues, traces, and eigenfunction residuals
  all         everything above

Each suite yields its checks; ``run_suite`` draws them one at a time,
timing each, and refuses a repeated id.  A Monte Carlo pass takes its
seven estimates from one run, which draws each chunk's stream once.
``TABLES`` holds the reference values of the exact suite, and the tables
command prints from it too.  Reports are deterministic for fixed
inputs (no timestamps), so repeated runs produce byte-identical JSON.

The Monte Carlo gate can fail a correct estimator by chance.  Under the
normal approximation each of its 7 checks misses 4 standard errors with
probability erfc(4 / sqrt(2)) = 6.3e-5, so a pass fails with probability at
most 7 times that, about 4.4e-4 (a union bound: the checks share a seed and
are not independent).  The report fails only if the retry on seed+1, an
independent stream, fails as well: about 2e-7.  The metadata entry
``montecarlo_false_fail`` carries both bounds.  Every check averages a
bounded summand: the volume checks a product of chances in [0, 1], the
cube checks an integrand in [1/2, 1] for n = 3 and one at most 4 for n = 2,
after the substitution x_i = 1 - s_i^2.  The bounds still rest on the
normal approximation.  When the suite includes the Monte Carlo checks, a
bad seed or sample count is refused before any check runs, and when it
includes the spectral checks, so is a grid below ``SPECTRAL_RANKS``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Iterator

from . import __version__
from .euler_sums import (
    PiMultiple,
    fourier_coeff_const,
    g_eval,
    parseval_sum,
    s_coeff,
    s_coeff_via_bernoulli,
    s_coeff_via_euler,
    s_numeric,
    s_value,
    zeta_coeff,
)
from .polytope_lab import (
    PolytopeSpec,
    _check_run,
    _mc_estimates,
    arctangent_check,
    chain_poset,
    cyclic_poset,
    order_polytope_volume,
    volume_formula,
)
from .special_numbers import (
    ENUMERATION_LIMIT,
    bernoulli,
    cyclic_zigzag,
    cyclic_zigzag_bruteforce,
    euler_number,
    power_sum,
    zigzag,
    zigzag_bruteforce,
)
from .spectral_operator import (
    eigenfunction_residual,
    exact_eigenvalue,
    inner_product_one,
    nystrom_matrix,
    nystrom_traces,
    sym_eigenvalues,
)

SUITES = ("exact", "numeric", "montecarlo", "spectral", "all")

# The Monte Carlo checks: polytope volumes, cube integrals, and the gate on
# each estimate's distance from the exact value, in standard errors.
MC_VOLUME_CASES = (("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("chain", 3), ("chain", 5))
MC_CUBE_DIMENSIONS = (2, 3)
MC_SIGMAS = 4

# Top Nystrom eigenvalues the spectral checks compare, so the least grid.
SPECTRAL_RANKS = 5

# Corrections applied to commonly printed conversion identities; the exact
# table calibrations in the 'exact' suite are what enforce them.
CORRECTION_NOTES = (
    "Bernoulli conversion uses S(2m) = (-1)^(m-1) (2^(2m)-1) pi^(2m) B_(2m) / (2 (2m)!); "
    "a printed variant lacking the (2m)! factor fails the exact coefficient table "
    "(it would give B_2 = 1/12 instead of 1/6) and is rejected by calibration.",
    "Euler conversion uses S(2m+1) = (-1)^m E_(2m) pi^(2m+1) / (2^(2m+2) (2m)!); "
    "a printed variant with the factorial and power moved into a prefactor fails "
    "the table (it would give E_0 = 1/16 instead of 1) and is rejected by calibration.",
    "The power-sum identity is applied as sum_{k=0}^{N-1} k^p = "
    "(1/(p+1)) sum_{m=0}^{p} C(p+1,m) B_m N^(p+1-m) with B_1 = -1/2, plus N^p for the "
    "top term; a printed variant summing from m = 1 with prefactor 1/p fails at p = 0.",
)


@dataclass
class CheckResult:
    """One verification check; all payload fields are printable strings."""

    id: str
    description: str
    status: str
    expected: str
    actual: str
    tolerance: str


@dataclass
class VerificationReport:
    """The checks and metadata that ``to_json`` prints, and the run's timings.

    ``timings`` holds one {"id", "s"} entry per check drawn, a discarded
    Monte Carlo pass included, and one {"suite", "s"} entry per suite run,
    in seconds.  The check during whose draw numpy was first imported also
    carries "imports": ["numpy"], since its seconds include that import.
    The first check of a Monte Carlo pass carries the pass's sampling, as
    its seven estimates come from one run.
    They vary from run to run, so neither the JSON nor the
    text rendering reads them, and report equality ignores them.
    """

    checks: list[CheckResult] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)
    timings: list[dict] = field(default_factory=list, compare=False, repr=False)

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.status == "pass")
        return {"passed": passed, "failed": len(self.checks) - passed}

    def all_passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "checks": [asdict(c) for c in self.checks],
            "summary": self.summary,
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2)

    def render_text(self, quiet: bool = False) -> str:
        lines = []
        if not quiet:
            for c in self.checks:
                lines.append(
                    f"[{c.status.upper():4s}] {c.id}: {c.description} "
                    f"(expected {c.expected}, actual {c.actual}, tolerance {c.tolerance})"
                )
        s = self.summary
        lines.append(f"{s['passed']} passed, {s['failed']} failed")
        return "\n".join(lines)


def _exact(check_id: str, description: str, expected, actual) -> CheckResult:
    status = "pass" if expected == actual else "fail"
    return CheckResult(check_id, description, status, str(expected), str(actual), "exact")


def _within(check_id: str, description: str, expected: float, actual: float, tol: float) -> CheckResult:
    status = "pass" if abs(actual - expected) <= tol else "fail"
    return CheckResult(check_id, description, status, str(expected), str(actual), str(tol))


# The reference tables: (name, description, route, {n: value}).  verify exact
# checks route(n) == value as exact.<name>.<n>, and the tables command prints
# route(n) for the same n.  The route is the name of a function bound in this
# module, looked up at call time, so a function rebound here (a tracer, a
# test's patch) is the one both commands call.
TABLES = (
    ("s_coeff", "coefficient of pi^{n} in S({n})", "s_coeff", {
        1: Fraction(1, 4),
        2: Fraction(1, 8),
        3: Fraction(1, 32),
        4: Fraction(1, 96),
        5: Fraction(5, 1536),
        6: Fraction(1, 960),
        7: Fraction(61, 184320),
        8: Fraction(17, 161280),
        9: Fraction(277, 8257536),
        10: Fraction(31, 2903040),
    }),
    ("zeta_coeff", "coefficient of pi^{n} in zeta({n})", "zeta_coeff", {
        2: Fraction(1, 6),
        4: Fraction(1, 90),
        6: Fraction(1, 945),
        8: Fraction(1, 9450),
        10: Fraction(1, 93555),
    }),
    ("bernoulli", "Bernoulli number B_{n}", "bernoulli", {
        0: Fraction(1),
        2: Fraction(1, 6),
        4: Fraction(-1, 30),
        6: Fraction(1, 42),
        8: Fraction(-1, 30),
        10: Fraction(5, 66),
    }),
    ("euler", "Euler number E_{n}", "euler_number", {0: 1, 2: -1, 4: 5, 6: -61, 8: 1385}),
    ("zigzag", "alternating permutation count A({n})", "zigzag",
     {1: 1, 2: 1, 3: 2, 4: 5, 5: 16, 6: 61, 7: 272, 8: 1385, 9: 7936, 10: 50521}),
    ("cyclic_zigzag", "cyclic count A0({n})", "cyclic_zigzag", {2: 1, 4: 4, 6: 48, 8: 1088, 10: 39680}),
)


def _table_checks(entries):
    for name, description, route, values in entries:
        for n, expected in values.items():
            yield _exact(f"exact.{name}.{n}", description.format(n=n), expected, globals()[route](n))


def _odd_bernoulli_by_recurrence(top):
    """B_3, B_5, ..., B_top from the defining recurrence sum_{m<=k} C(k+1, m) B_m = 0.

    Reads B_0, B_1 and the even values of ``bernoulli`` (the zeta route),
    and takes the odd values below k from the recurrence itself, so a wrong
    even value makes an odd one nonzero.
    """
    known = [bernoulli(0), bernoulli(1)]
    for k in range(2, top + 1):
        if k % 2 == 0:
            known.append(bernoulli(k))
        else:
            known.append(-sum(math.comb(k + 1, m) * known[m] for m in range(k)) / (k + 1))
    return known[3::2]


def _exact_checks():
    yield from _table_checks(TABLES[:2])
    yield _exact("exact.l4_coeff.1", "alternating L-value coefficient at n=1",
                 Fraction(1, 4), s_coeff_via_euler(1))
    yield from _table_checks(TABLES[2:3])
    yield _exact("exact.bernoulli.1", "Bernoulli number B_1", Fraction(-1, 2), bernoulli(1))
    yield _exact("exact.bernoulli.odd", "odd Bernoulli numbers vanish for 3 <= n <= 19",
                 [Fraction(0)] * 9, _odd_bernoulli_by_recurrence(19))
    yield from _table_checks(TABLES[3:])
    for n in range(1, ENUMERATION_LIMIT + 1):
        yield _exact(f"exact.zigzag_bruteforce.{n}", f"A({n}) by enumeration of all {n}! permutations",
                     zigzag(n), zigzag_bruteforce(n))
    for n in range(2, ENUMERATION_LIMIT + 1, 2):
        yield _exact(f"exact.cyclic_bruteforce.{n}", f"A0({n}) by enumeration",
                     cyclic_zigzag(n), cyclic_zigzag_bruteforce(n))
    yield _exact("exact.route.bernoulli", "Bernoulli route equals zigzag route for even n <= 60",
                 [s_coeff(n) for n in range(2, 61, 2)],
                 [s_coeff_via_bernoulli(n) for n in range(2, 61, 2)])
    yield _exact("exact.route.euler", "Euler route equals zigzag route for odd n <= 59",
                 [s_coeff(n) for n in range(1, 60, 2)],
                 [s_coeff_via_euler(n) for n in range(1, 60, 2)])
    yield _exact("exact.extensions.chain", "chain order-polytope volume equals A(n)/n! for n <= 10",
                 [Fraction(zigzag(n), math.factorial(n)) for n in range(1, 11)],
                 [order_polytope_volume(chain_poset(n)) for n in range(1, 11)])
    yield _exact("exact.extensions.cyclic",
                 "cyclic order-polytope volume equals A0(n)/n! and 2^n s_coeff(n) for even n <= 10",
                 [volume_formula(PolytopeSpec("cyclic", n, "unit")).coeff for n in range(2, 11, 2)],
                 [order_polytope_volume(cyclic_poset(n)) for n in range(2, 11, 2)])
    yield _exact("exact.power_sum", "Bernoulli power-sum identity for N <= 20, p <= 10",
                 True,
                 all(sums.direct == sums.via_bernoulli
                     for sums in (power_sum(N, p) for N in range(1, 21) for p in range(11))))
    yield _exact("exact.cyclic_bernoulli_identity",
                 "A0(n) = 2^(n-1) (2^n - 1) |B_n| for even n <= 16",
                 [cyclic_zigzag(n) for n in range(2, 17, 2)],
                 [2 ** (n - 1) * (2**n - 1) * abs(bernoulli(n)) for n in range(2, 17, 2)])
    yield _exact("exact.operator_monomial",
                 "inner product of 1 with the (n-1)-th operator iterate is (A(n)/n!)(pi/2)^n, n <= 20",
                 True,
                 all(inner_product_one(n) == PiMultiple(Fraction(zigzag(n), math.factorial(n) * 2**n), n)
                     for n in range(1, 21)))
    yield _exact("exact.ratio.m5", "cyclic-to-plain ratio at ten letters",
                 Fraction(39680, 50521), Fraction(cyclic_zigzag(10), zigzag(10)))


def _numeric_checks():
    for n in range(2, 11):
        value, tail = s_numeric(n, 10**5)
        yield _within(f"numeric.s_numeric.{n}", f"truncated summation of S({n}) within its tail bound",
                      s_value(n).to_float(), value, tail + 1e-9)
    for z in (0.5, -0.5, 0.9, -0.9):
        closed, series = g_eval(z, 80)
        yield _within(f"numeric.g_eval.{z}", f"generating function closed form vs series at z={z}",
                      closed, series, 1e-10)
    exact_pi4, numeric = arctangent_check()
    yield _within("numeric.arctangent", "arctangent integral recovers pi/4",
                  exact_pi4.to_float(), numeric, 1e-10)
    yield _within("numeric.fourier.k0", "leading expansion coefficient of the constant 1",
                  4 / math.pi, fourier_coeff_const(0), 1e-14)
    yield _within("numeric.parseval.0", "squared-coefficient sum recovers the norm of 1",
                  math.pi / 2, parseval_sum(0, 10**5), 1e-4)
    yield _within("numeric.parseval.1", "weighted squared-coefficient sum recovers pi^2/8",
                  math.pi**2 / 8, parseval_sum(1, 10**4), 1e-6)


def _montecarlo_checks(seed: int, samples: int, suffix: str):
    """One pass of the Monte Carlo checks on one seed, each id ending in suffix.

    The seven estimates come from one run that draws each chunk's stream
    once, so the first check of the pass carries the whole draw.
    """
    specs = [PolytopeSpec(kind, n, "half_pi") for kind, n in MC_VOLUME_CASES]
    cases = [(f"volume.{spec.kind}.{spec.n}", f"{spec.kind} polytope volume in dimension {spec.n}",
              volume_formula, spec) for spec in specs]
    cases += [(f"cube.{n}", f"cube integral in dimension {n}", s_value, n) for n in MC_CUBE_DIMENSIONS]
    estimates = _mc_estimates(specs, MC_CUBE_DIMENSIONS, samples, seed)
    for (name, what, exact_route, arg), estimate in zip(cases, estimates):
        exact = exact_route(arg)
        yield _within(f"montecarlo.{name}{suffix}", f"{what} at {MC_SIGMAS} standard errors",
                      exact.to_float(), estimate.mean, MC_SIGMAS * estimate.std_error)


def _montecarlo_false_fail() -> dict:
    """Bounds on the chance that correct estimators fail a pass, or the report.

    Rounded to two significant digits, so the report stays byte-identical
    across platforms whose erfc differs in the last bits.
    """
    miss = math.erfc(MC_SIGMAS / math.sqrt(2))
    per_pass = (len(MC_VOLUME_CASES) + len(MC_CUBE_DIMENSIONS)) * miss
    return {"per_pass": float(f"{per_pass:.2g}"), "report": float(f"{per_pass**2:.2g}")}


def _spectral_checks(grid: int):
    # The closed-form spectrum reads only the grid size, so no dense matrix
    # is assembled for it; the three traces share one kernel and one square.
    spectrum = sym_eigenvalues(nystrom_matrix(grid), grid)
    top = spectrum[:SPECTRAL_RANKS]
    for rank, approx in enumerate(top):
        exact_value = exact_eigenvalue(rank)
        yield _within(f"spectral.eigenvalue.{rank}", f"Nystrom eigenvalue of rank {rank} within 1% at N={grid}",
                      exact_value, approx, 0.01 * abs(exact_value))
    gaps_ok = all(
        abs(top[i] - top[j]) > 10 * 0.01 * max(abs(exact_eigenvalue(i)), abs(exact_eigenvalue(j)))
        for i in range(SPECTRAL_RANKS) for j in range(i + 1, SPECTRAL_RANKS)
    )
    yield _exact("spectral.multiplicity", "top eigenvalues pairwise distinct beyond tolerance", True, gaps_ok)
    for n, trace in zip((2, 3, 4), nystrom_traces(grid)):
        exact_value = s_value(n).to_float()
        yield _within(f"spectral.trace.{n}", f"trace of the {n}-th matrix power within 1% of S({n}) at N={grid}",
                      exact_value, trace, 0.01 * exact_value)
        yield _within(f"spectral.spectral_sum.{n}", f"power-{n} eigenvalue sum matches the matrix-power trace",
                      trace, math.fsum(v**n for v in spectrum), 1e-8)
    for k in (0, -1, 1):
        residual = eigenfunction_residual(k, 1000)
        yield CheckResult(f"spectral.residual.{k}", f"eigenrelation residual for mode k={k} at N=1000",
                          "pass" if residual < 1e-4 else "fail", "< 0.0001", str(residual), "0.0001")


def _draw(checks: Iterator[CheckResult], timings: list[dict]) -> list[CheckResult]:
    """The checks as a list, drawn one at a time; each one's seconds go to timings as {"id", "s"}.

    A check whose draw first imported numpy is marked "imports": ["numpy"].
    """
    drawn = []
    numpy_loaded = "numpy" in sys.modules
    start = time.perf_counter()
    for check in checks:
        entry = {"id": check.id, "s": time.perf_counter() - start}
        if not numpy_loaded and "numpy" in sys.modules:
            numpy_loaded = True
            entry["imports"] = ["numpy"]
        timings.append(entry)
        drawn.append(check)
        start = time.perf_counter()
    return drawn


def run_suite(
    suite: str = "all",
    *,
    seed: int = 0,
    samples: int = 10**6,
    grid: int = 2000,
) -> VerificationReport:
    """Run a verification suite and return the report."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if suite in ("montecarlo", "all"):
        _check_run(samples, seed)
    if suite in ("spectral", "all") and grid < SPECTRAL_RANKS:
        raise ValueError(f"the spectral checks need a grid of at least {SPECTRAL_RANKS}, not {grid}")
    passes = {
        "exact": _exact_checks,
        "numeric": _numeric_checks,
        "montecarlo": lambda: _montecarlo_checks(seed, samples, ""),
        "spectral": lambda: _spectral_checks(grid),
    }
    checks: list[CheckResult] = []
    timings: list[dict] = []
    retried = False
    for name, first_pass in passes.items():
        if suite not in (name, "all"):
            continue
        start = time.perf_counter()
        drawn = _draw(first_pass(), timings)
        if name == "montecarlo" and any(check.status == "fail" for check in drawn):
            retried = True
            drawn = _draw(_montecarlo_checks(seed + 1, samples, ".retry"), timings)
        checks += drawn
        timings.append({"suite": name, "s": time.perf_counter() - start})
    ids = [check.id for check in checks]
    if len(set(ids)) < len(ids):
        raise ValueError(f"duplicate check id {next(i for i in ids if ids.count(i) > 1)}")
    metadata = {
        "suite": suite,
        "seed": seed,
        "samples": samples,
        "grid": grid,
        "montecarlo_retried": retried,
        "montecarlo_false_fail": _montecarlo_false_fail(),
        "version": __version__,
        "notes": list(CORRECTION_NOTES),
    }
    return VerificationReport(checks=checks, metadata=metadata, timings=timings)
