import random
from fractions import Fraction

import pytest

from exact_oracle import (
    ONE,
    add,
    antiderivative,
    apply_operator,
    derivative,
    from_vpipoly,
    integral_to_half_pi,
    mul,
    reflect,
)
from zigzagsums.exact_arith import VPiPoly

HALF_PI_MINUS_V = {(1, 0): Fraction(1, 2), (0, 1): Fraction(-1)}


def random_poly(rng: random.Random) -> dict:
    """A random oracle polynomial in pi (degree <= 2) and v (degree <= 3)."""
    return {
        (i, j): Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4))
        for i, j in rng.sample([(i, j) for i in range(3) for j in range(4)], rng.randint(0, 6))
    }


def random_vpipoly(rng: random.Random) -> VPiPoly:
    degree = rng.randint(0, 6)
    numerators = [rng.randint(-9, 9) for _ in range(rng.randint(0, degree + 1))]
    return VPiPoly(degree, tuple(numerators), rng.choice([-6, -3, -1, 1, 2, 5, 12]))


class TestVPiPoly:
    def test_no_zero_terms_stored(self):
        # lowest terms, positive denominator, no trailing zero numerators
        p = VPiPoly(2, (2, 0, -4, 0, 0), 8)
        assert (p.degree, p.numerators, p.denominator) == (2, (1, 0, -2), 4)
        assert VPiPoly(2, (-1, 0, 2), -4) == p
        zero = VPiPoly(3, (0, 0), 5)
        assert (zero.degree, zero.numerators, zero.denominator) == (0, (), 1)
        assert zero == VPiPoly(0, ())

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            VPiPoly(1, (1, 2, 3))
        with pytest.raises(ValueError):
            VPiPoly(-1, ())
        with pytest.raises(ZeroDivisionError):
            VPiPoly(1, (1,), 0)

    def test_reflect_linear(self):
        # v -> pi/2 - v
        assert reflect({(0, 1): Fraction(1)}) == HALF_PI_MINUS_V

    def test_reflect_fixes_constants(self):
        assert reflect(ONE) == ONE

    def test_reflect_square(self):
        # (pi/2 - v)^2 = pi^2/4 - pi v + v^2, expanded by hand
        expected = {(2, 0): Fraction(1, 4), (1, 1): Fraction(-1), (0, 2): Fraction(1)}
        assert reflect({(0, 2): Fraction(1)}) == expected

    def test_integral_of_one_over_half_pi(self):
        assert integral_to_half_pi(ONE) == ((1, Fraction(1, 2)),)

    def test_integral_of_reflection_over_half_pi(self):
        # integral of (pi/2 - u) du over (0, pi/2) is pi^2/4 - pi^2/8 = pi^2/8
        assert integral_to_half_pi(HALF_PI_MINUS_V) == ((2, Fraction(1, 8)),)

    def test_integral_of_one_to_reflection(self):
        value = VPiPoly.one().integral_to_reflection()
        assert value == VPiPoly(1, (1, -1))
        assert from_vpipoly(value) == HALF_PI_MINUS_V == apply_operator(ONE)

    def test_integral_to_reflection_matches_oracle(self):
        rng = random.Random(103)
        for _ in range(200):
            p = random_vpipoly(rng)
            image = p.integral_to_reflection()
            assert from_vpipoly(image) == apply_operator(from_vpipoly(p)), p
            assert image.degree == (p.degree + 1 if p.numerators else 0)

    def test_reflect_is_an_involution(self):
        rng = random.Random(99)
        for _ in range(50):
            p = random_poly(rng)
            assert reflect(reflect(p)) == p

    def test_reflect_is_multiplicative(self):
        rng = random.Random(100)
        for _ in range(50):
            p, q = random_poly(rng), random_poly(rng)
            assert reflect(mul(p, q)) == mul(reflect(p), reflect(q))

    def test_derivative_inverts_integral(self):
        rng = random.Random(101)
        for _ in range(50):
            p = random_poly(rng)
            assert derivative(antiderivative(p)) == p

    def test_ring_laws(self):
        rng = random.Random(102)
        for _ in range(30):
            p, q, r = (random_poly(rng) for _ in range(3))
            assert add(p, q) == add(q, p)
            assert mul(p, q) == mul(q, p)
            assert add(add(p, q), r) == add(p, add(q, r))
            assert mul(mul(p, q), r) == mul(p, mul(q, r))
            assert mul(p, add(q, r)) == add(mul(p, q), mul(p, r))
