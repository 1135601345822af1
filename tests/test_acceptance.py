"""Acceptance suite: one test per contract criterion, at its stated tolerance.

Each test prints a single ``ACCEPTANCE <k> [pass|fail]`` line (visible with
``pytest -s`` or in failure output) and asserts both the numerical criterion
and its runtime budget.
"""

import math
import random
import time
from fractions import Fraction


from zigzagsums.euler_sums import g_eval, s_coeff, s_numeric, zeta_coeff
from zigzagsums.polytope_lab import (
    PolytopeSpec,
    chain_poset,
    cyclic_poset,
    forward_map,
    inverse_map,
    jacobian_fd,
    jacobian_formula,
    mc_cube_integral,
    mc_volume,
    order_polytope_volume,
    volume_formula,
)
from zigzagsums.special_numbers import (
    bernoulli,
    cyclic_zigzag,
    cyclic_zigzag_bruteforce,
    euler_number,
    zigzag,
    zigzag_bruteforce,
)
from zigzagsums.spectral_operator import (
    eigenfunction_residual,
    exact_eigenvalue,
    inner_product_one,
    nystrom_matrix,
    sym_eigenvalues,
    trace_power_nystrom,
)

S_TABLE = [
    Fraction(1, 4), Fraction(1, 8), Fraction(1, 32), Fraction(1, 96),
    Fraction(5, 1536), Fraction(1, 960), Fraction(61, 184320),
    Fraction(17, 161280), Fraction(277, 8257536), Fraction(31, 2903040),
]
ZETA_TABLE = [Fraction(1, 6), Fraction(1, 90), Fraction(1, 945),
              Fraction(1, 9450), Fraction(1, 93555)]
ZIGZAG_TABLE = [1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]
CYCLIC_TABLE = [1, 4, 48, 1088, 39680]


class _Budget:
    """Times a criterion and prints its verdict line."""

    def __init__(self, number: int, limit_seconds: float):
        self.number = number
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "pass" if exc_type is None and elapsed < self.limit else "fail"
        print(
            f"ACCEPTANCE {self.number} [{status}] "
            f"({elapsed:.2f}s of {self.limit:.0f}s budget)"
        )
        if exc_type is None:
            assert elapsed < self.limit, f"criterion {self.number} exceeded runtime budget"
        return False


def test_criterion_1_coefficient_tables():
    with _Budget(1, 1.0):
        assert [s_coeff(n) for n in range(1, 11)] == S_TABLE
        assert [zeta_coeff(n) for n in range(2, 11, 2)] == ZETA_TABLE


def test_criterion_2_bernoulli_euler_tables():
    with _Budget(2, 1.0):
        assert [bernoulli(n) for n in range(0, 11, 2)] == [
            Fraction(1), Fraction(1, 6), Fraction(-1, 30),
            Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
        ]
        assert [euler_number(n) for n in range(0, 9, 2)] == [1, -1, 5, -61, 1385]


def test_criterion_3_permutation_tables_with_enumeration():
    with _Budget(3, 30.0):
        assert [zigzag(n) for n in range(1, 11)] == ZIGZAG_TABLE
        assert [cyclic_zigzag(n) for n in range(2, 11, 2)] == CYCLIC_TABLE
        assert [zigzag_bruteforce(n) for n in range(1, 11)] == ZIGZAG_TABLE
        assert [cyclic_zigzag_bruteforce(n) for n in range(2, 11, 2)] == CYCLIC_TABLE


def test_criterion_4_route_agreement():
    from zigzagsums.euler_sums import s_coeff_via_bernoulli, s_coeff_via_euler

    with _Budget(4, 5.0):
        for n in range(1, 61):
            other = s_coeff_via_bernoulli(n) if n % 2 == 0 else s_coeff_via_euler(n)
            assert s_coeff(n) == other, n
        for n in range(1, 11):
            assert order_polytope_volume(chain_poset(n)) == volume_formula(
                PolytopeSpec("chain", n, "unit")
            ).coeff, n
        for n in range(2, 11, 2):
            assert order_polytope_volume(cyclic_poset(n)) == volume_formula(
                PolytopeSpec("cyclic", n, "unit")
            ).coeff, n


def test_criterion_5_operator_monomial_identity():
    with _Budget(5, 5.0):
        for n in range(1, 21):
            value = inner_product_one(n)
            expected = Fraction(zigzag(n), math.factorial(n) * 2**n)
            assert value.terms == ((n, expected),), n


def test_criterion_6_trig_map_round_trip_and_jacobian():
    with _Budget(6, 10.0):
        rng = random.Random(2024)
        for n in (1, 2, 3, 5, 8):
            for _ in range(100):
                # corner margin: the plain fixed-point iteration needs more
                # than 200 iterations once a coordinate passes about 0.93
                x = tuple(rng.uniform(0.02, 0.9) for _ in range(n))
                u = inverse_map(x)
                back = forward_map(u)
                assert max(abs(a - b) for a, b in zip(back, x)) < 1e-10
        margin = 1e-3
        for n in (1, 2, 3, 5, 8):
            checked = 0
            while checked < 100:
                u = tuple(rng.uniform(margin, math.pi / 2 - margin) for _ in range(n))
                if any(u[i] + u[(i + 1) % n] >= math.pi / 2 - margin for i in range(n)):
                    continue
                checked += 1
                formula = jacobian_formula(forward_map(u))
                assert abs(jacobian_fd(u) - formula) / abs(formula) < 1e-5


def _montecarlo_round(seed: int) -> bool:
    cases = [("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("chain", 3), ("chain", 5)]
    for kind, n in cases:
        spec = PolytopeSpec(kind, n, "half_pi")
        estimate = mc_volume(spec, 10**6, seed)
        exact = volume_formula(spec).to_float()
        if abs(estimate.mean - exact) > 4 * estimate.std_error:
            return False
    for n in (2, 3):
        estimate = mc_cube_integral(n, 10**6, seed)
        exact = float(s_coeff(n)) * math.pi**n
        if abs(estimate.mean - exact) > 4 * estimate.std_error:
            return False
    return True


def test_criterion_7_monte_carlo_four_sigma():
    with _Budget(7, 60.0):
        # one retry on seed+1 bounds the joint false-failure rate
        assert _montecarlo_round(0) or _montecarlo_round(1)


def test_criterion_8_spectral_numerics():
    with _Budget(8, 120.0):
        top5 = sym_eigenvalues(nystrom_matrix(2000), 5)
        for rank, value in enumerate(top5):
            exact = exact_eigenvalue(rank)
            assert abs(value - exact) <= 0.01 * abs(exact), rank
        for n in (2, 3, 4):
            exact = float(s_coeff(n)) * math.pi**n
            assert abs(trace_power_nystrom(2000, n) - exact) <= 0.01 * exact, n
        for k in (0, -1, 1):
            assert eigenfunction_residual(k, 1000) < 1e-4, k


def test_criterion_9_ratio_limit():
    with _Budget(9, 1.0):
        ratio = Fraction(cyclic_zigzag(10), zigzag(10))
        assert ratio == Fraction(39680, 50521)
        assert abs(float(ratio) - math.pi / 4) < 2e-5


def test_criterion_10_series_and_closed_form():
    with _Budget(10, 10.0):
        for z in (0.5, -0.5, 0.9, -0.9):
            closed, series = g_eval(z, 80)
            assert abs(closed - series) < 1e-10, z
        for n in range(2, 11):
            value, tail = s_numeric(n, 10**5)
            exact = float(s_coeff(n)) * math.pi**n
            assert abs(value - exact) <= tail + 1e-9, n
