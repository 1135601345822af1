import random
from fractions import Fraction

from zigzagsums.exact_arith import HALF_PI, PiPoly, VPiPoly


def random_pipoly(rng: random.Random) -> PiPoly:
    return PiPoly.from_dict(
        {
            d: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            for d in rng.sample(range(3), rng.randint(0, 3))
        }
    )


def random_vpipoly(rng: random.Random) -> VPiPoly:
    return VPiPoly.from_dict(
        {j: random_pipoly(rng) for j in rng.sample(range(4), rng.randint(0, 4))}
    )


class TestPiPoly:
    def test_no_zero_terms_stored(self):
        p = PiPoly.from_dict({0: Fraction(1), 2: Fraction(0)})
        assert p.terms == ((0, Fraction(1)),)
        assert (p - p).is_zero()


class TestVPiPoly:
    def test_reflect_linear(self):
        # v -> pi/2 - v
        assert VPiPoly.v_power(1).reflect() == VPiPoly.from_dict(
            {0: HALF_PI, 1: PiPoly.rational(-1)}
        )

    def test_reflect_fixes_constants(self):
        one = VPiPoly.one()
        assert one.reflect() == one

    def test_reflect_square(self):
        # (pi/2 - v)^2 = pi^2/4 - pi v + v^2, expanded by hand
        expected = VPiPoly.from_dict(
            {
                0: PiPoly.pi_power(2, Fraction(1, 4)),
                1: PiPoly.pi_power(1, Fraction(-1)),
                2: PiPoly.rational(1),
            }
        )
        assert VPiPoly.v_power(2).reflect() == expected

    def test_integral_of_one_over_half_pi(self):
        assert VPiPoly.one().integral_to_half_pi() == HALF_PI

    def test_integral_of_reflection_over_half_pi(self):
        # integral of (pi/2 - u) du over (0, pi/2) is pi^2/4 - pi^2/8 = pi^2/8
        integrand = VPiPoly.from_dict({0: HALF_PI, 1: PiPoly.rational(-1)})
        assert integrand.integral_to_half_pi() == PiPoly.pi_power(2, Fraction(1, 8))

    def test_integral_of_one_to_reflection(self):
        assert VPiPoly.one().integral_to_reflection() == VPiPoly.from_dict(
            {0: HALF_PI, 1: PiPoly.rational(-1)}
        )

    def test_reflect_is_an_involution(self):
        rng = random.Random(99)
        for _ in range(50):
            p = random_vpipoly(rng)
            assert p.reflect().reflect() == p

    def test_reflect_is_multiplicative(self):
        rng = random.Random(100)
        for _ in range(50):
            p, q = random_vpipoly(rng), random_vpipoly(rng)
            assert (p * q).reflect() == p.reflect() * q.reflect()

    def test_derivative_inverts_integral(self):
        rng = random.Random(101)
        for _ in range(50):
            p = random_vpipoly(rng)
            assert p.cumulative_integral().derivative() == p

    def test_ring_laws(self):
        rng = random.Random(102)
        for _ in range(30):
            p, q, r = (random_vpipoly(rng) for _ in range(3))
            assert p + q == q + p
            assert p * q == q * p
            assert (p + q) + r == p + (q + r)
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
