"""No check of verify derives one side from the other.

Each verify check compares one route's value with another's.  If both sides
read the same function, a wrong value there moves both alike and the check
still passes.  For each route function below, the audit rebinds a perturbed
copy in every zigzagsums namespace that binds it (as the benchmark's span
tracer rebinds its wrappers), resets the sequence caches, and runs the checks
of the four suites: exact, numeric, spectral at grid 400, and one Monte Carlo
pass at 50000 samples.  A check reads the function if the function ran while
the check was built (for a route that is one part of a shared run, if one of
the route's results was read), or if its expected or actual text differs from an
unperturbed run (that covers values shared between checks, such as the
spectrum, which is computed once).  Every check that reads it must fail.

Each perturbation moves every value it touches by more than the tolerance of
any check that reads it; the reason is given route by route.
"""

import dataclasses
import functools
import importlib
import sys

import pytest

from zigzagsums import report, special_numbers
from zigzagsums.exact_arith import VPiPoly


def _twice_plus_one(value):
    return 2 * value + 1


def _shift_ten_errors(estimate):
    return dataclasses.replace(estimate, mean=estimate.mean + 10 * estimate.std_error)


class _Recorded:
    """A result that appends to calls each time one of its attributes is read."""

    def __init__(self, value, calls):
        self._value, self._calls = value, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._value, name)


# route -> (perturbation of its return value, the checks it must reach).
PERTURBATIONS = {
    # Exact routes: the checks compare with ==, and 2x + 1 differs from x
    # unless x = -1, which no count and no Bernoulli number is.  It also is
    # not a multiple of x, so a ratio of two perturbed counts moves too
    # (exact.ratio.m5).  The float checks that read zigzag read A(m) for
    # m <= 10 only through S(n), n <= 10, and the volumes, n <= 5, which it
    # at least doubles; their loosest tolerances are 1% (spectral traces)
    # and 4 standard errors, under 3% at 50000 samples.  g_eval's series
    # reads S(1), which it triples, so the series moves by pi |z| / 2 >> 1e-10.
    "special_numbers.zigzag": (_twice_plus_one, "exact.zigzag.10"),
    "special_numbers.bernoulli": (_twice_plus_one, "exact.bernoulli.10"),
    # The Euler route also gives L(n, chi_4); exact.l4_coeff.1 reads E_0 = 1,
    # which comes from the cache seed, so no _euler_product perturbation
    # reaches it.
    "euler_sums.s_coeff_via_euler": (_twice_plus_one, "exact.l4_coeff.1"),
    # 2Z + 1 doubles the Euler product, so every B_n and E_n for n >= 2
    # comes out doubled: the certified error of the doubled value stays
    # under 1/4, so it rounds to 2 |B_n| D or 2 |E_n| instead of raising.
    "special_numbers._euler_product": (_twice_plus_one, "exact.route.euler"),
    "special_numbers._leaf_counts": (
        lambda counts: tuple(map(_twice_plus_one, counts)), "exact.cyclic_bruteforce.10"
    ),
    "polytope_lab.linear_extension_count": (_twice_plus_one, "exact.extensions.chain"),
    # Every numerator of q_n moves, so the inner product is no longer A(n)/n!.
    "spectral_operator._iterate": (
        lambda q: VPiPoly(q.degree, tuple(map(_twice_plus_one, q.numerators)), q.denominator),
        "exact.operator_monomial",
    ),
    # Float routes: a factor 1.5 moves S(n) (about 1) and the traces by far
    # more than their gates: 1e-9 plus a tail below 2e-6 (s_numeric), 1e-4
    # and 1e-6 (Parseval), 1% (traces) and 1e-8 (eigenvalue sums).
    "euler_sums.s_numeric": (lambda s: s._replace(value=1.5 * s.value), "numeric.s_numeric.2"),
    "spectral_operator.parseval_sum": (lambda total: 1.5 * total, "numeric.parseval.0"),
    "spectral_operator.nystrom_traces": (
        lambda traces: tuple(1.5 * t for t in traces), "spectral.trace.2"
    ),
    # A scale factor keeps the top eigenvalues apart; a spectrum of one
    # value at 1.5 lambda_0 moves each top eigenvalue by more than 1%, makes
    # them coincide, and moves every power sum by far more than 1e-8.
    "spectral_operator.sym_eigenvalues": (
        lambda spectrum: [1.5 * spectrum[0]] * len(spectrum), "spectral.multiplicity"
    ),
    # A shift of 10 standard errors: an estimate within 4 of the exact value
    # (the unperturbed run passes) lands at least 6 away.  One run gives
    # every Monte Carlo estimate of a pass, the volumes and the cube integrals;
    # the two routes are also perturbed each alone (SHARED_ROUTES).
    "polytope_lab._mc_estimates": (
        lambda estimates: list(map(_shift_ten_errors, estimates)),
        "montecarlo.volume.cyclic.2",
        "montecarlo.cube.2",
    ),
    "polytope_lab.mc_volume": (_shift_ten_errors, "montecarlo.volume.cyclic.2"),
    "polytope_lab.mc_cube_integral": (_shift_ten_errors, "montecarlo.cube.2"),
}

# Routes that verify reads as a part of one shared run: route -> (the
# function that makes the run, the indices of the route's results given the
# run's arguments).  The Monte Carlo pass takes its volumes, then its cube
# integrals, from one _mc_estimates call, so a wrong mc_volume or
# mc_cube_integral is modelled by perturbing only its part of that run.  The
# run is made once, while the pass's first check is built, so a check counts
# as calling such a route when it reads one of the route's results.
SHARED_ROUTES = {
    "polytope_lab.mc_volume": (
        "polytope_lab._mc_estimates", lambda volumes, cubes, *_: range(len(volumes))
    ),
    "polytope_lab.mc_cube_integral": (
        "polytope_lab._mc_estimates",
        lambda volumes, cubes, *_: range(len(volumes), len(volumes) + len(cubes)),
    ),
}

# Checks known to pass with a route perturbed, each with the ROADMAP item
# that gives it an independent side.  Nothing may be added without one.
TAUTOLOGIES: dict = {}

_LEAF_COUNTS = special_numbers._leaf_counts


def _run(calls: list) -> dict:
    """{check id: (check, whether calls grew while it was built)} over the four suites."""
    results = {}
    suites = (
        report._exact_checks(),
        report._numeric_checks(),
        report._spectral_checks(400),
        report._montecarlo_checks(0, 50000, ""),
    )
    for checks in suites:
        before = len(calls)
        for check in checks:
            results[check.id] = (check, len(calls) > before)
            before = len(calls)
    return results


@functools.cache
def _baseline() -> dict:
    return {check_id: check for check_id, (check, _) in _run([]).items()}


def _readers(monkeypatch, route: str) -> dict:
    """{check id: whether it passes} for each check that reads route, with route perturbed."""
    target, part = SHARED_ROUTES.get(route, (route, None))
    module_name, name = target.rsplit(".", 1)
    real = getattr(importlib.import_module(f"zigzagsums.{module_name}"), name)
    perturb = PERTURBATIONS[route][0]
    calls = []

    def perturbed(*args):
        if part is None:
            calls.append(args)
            return perturb(real(*args))
        results = list(real(*args))
        for index in part(*args):
            results[index] = _Recorded(perturb(results[index]), calls)
        return results

    baseline = _baseline()
    assert all(check.status == "pass" for check in baseline.values())
    for module_key, module in list(sys.modules.items()):
        if module_key == "zigzagsums" or module_key.startswith("zigzagsums."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, perturbed)
    monkeypatch.setattr(special_numbers, "_CACHE", special_numbers.SequenceCache())
    _LEAF_COUNTS.cache_clear()
    try:
        results = _run(calls)
    finally:
        _LEAF_COUNTS.cache_clear()
    assert results.keys() == baseline.keys()
    readers = {}
    for check_id, (check, called) in results.items():
        before = baseline[check_id]
        if called or (check.expected, check.actual) != (before.expected, before.actual):
            readers[check_id] = check.status == "pass"
    return readers


@pytest.mark.parametrize("route", PERTURBATIONS)
def test_every_reader_fails(monkeypatch, route):
    readers = _readers(monkeypatch, route)
    assert set(PERTURBATIONS[route][1:]) <= readers.keys()
    known = {check_id for (known_route, check_id) in TAUTOLOGIES if known_route == route}
    assert {check_id for check_id, passed in readers.items() if passed} <= known


@pytest.mark.parametrize(
    "route,check_id",
    [pytest.param(*key, marks=pytest.mark.xfail(strict=True, reason=reason))
     for key, reason in TAUTOLOGIES.items()],
)
def test_known_tautology_fails(monkeypatch, route, check_id):
    assert _readers(monkeypatch, route)[check_id] is False
