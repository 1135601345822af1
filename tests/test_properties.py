"""Property tests for the exact kernels and the cube map; skipped when hypothesis is not installed."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import exact_oracle  # noqa: E402
from zigzagsums import special_numbers  # noqa: E402
from zigzagsums.polytope_lab import (  # noqa: E402
    forward_map,
    inverse_map,
    jacobian_fd,
    jacobian_formula,
)
from zigzagsums.special_numbers import (  # noqa: E402
    SequenceCache,
    bernoulli,
    power_sum,
    zigzag,
)
from zigzagsums.spectral_operator import (  # noqa: E402
    T_POWER_LIMIT,
    inner_product_one,
    t_power_one,
)

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None)

# Image points of the cube map: n = 2..8, coordinates in [0.05, 0.95], away
# from the all-ones corner where inverse_map raises by design.
IMAGE_POINTS = st.integers(min_value=2, max_value=8).flatmap(
    lambda n: st.tuples(*[st.floats(min_value=0.05, max_value=0.95)] * n)
)


@PROPERTY_SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=150), min_size=1, max_size=6))
def test_bernoulli_is_independent_of_cache_growth_order(queries):
    shared = [bernoulli(n) for n in queries]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(special_numbers, "_CACHE", SequenceCache())
        assert [bernoulli(n) for n in queries] == shared
    for n, value in zip(queries, shared):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(special_numbers, "_CACHE", SequenceCache())
            assert bernoulli(n) == value


@PROPERTY_SETTINGS
@given(st.integers(min_value=2, max_value=150))
def test_bernoulli_satisfies_its_defining_recurrence(k):
    assert sum(math.comb(k + 1, m) * bernoulli(m) for m in range(k + 1)) == 0


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=40))
def test_power_sums_through_bernoulli_numbers(N, p):
    result = power_sum(N, p)
    assert result.via_bernoulli == result.direct


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=24))
def test_iterate_derivative_is_reflected_previous_iterate(n):
    # d/dv of the integral of f over (0, pi/2 - v) is -f(pi/2 - v)
    derivative = exact_oracle.derivative(exact_oracle.from_vpipoly(t_power_one(n)))
    reflected = exact_oracle.reflect(exact_oracle.from_vpipoly(t_power_one(n - 1)))
    assert derivative == {key: -c for key, c in reflected.items()}


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=T_POWER_LIMIT))
def test_iterate_is_homogeneous_and_vanishes_at_half_pi(n):
    iterate = t_power_one(n)
    assert iterate.degree == len(iterate.numerators) - 1 == n
    poly = exact_oracle.from_vpipoly(iterate)
    assert all(i + j == n for i, j in poly) and (0, n) in poly
    assert exact_oracle.at_half_pi(poly) == ()


@PROPERTY_SETTINGS
@given(st.integers(min_value=1, max_value=T_POWER_LIMIT + 1))
def test_inner_product_is_the_zigzag_monomial(n):
    expected = Fraction(zigzag(n), math.factorial(n) * 2**n)
    assert inner_product_one(n).terms == ((n, expected),)


@PROPERTY_SETTINGS
@given(IMAGE_POINTS)
def test_inverse_map_round_trips_through_forward_map(x):
    back = forward_map(inverse_map(x))
    assert max(abs(a - b) for a, b in zip(back, x)) <= 1e-9


@PROPERTY_SETTINGS
@given(IMAGE_POINTS)
def test_jacobian_formula_matches_finite_differences(x):
    assert abs(jacobian_fd(inverse_map(x)) - jacobian_formula(x)) <= 1e-6
