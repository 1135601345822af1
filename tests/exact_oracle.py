"""Oracles for the exact routes, in their straightforward Fraction forms.

``bernoulli_numbers`` runs the defining Bernoulli recurrence term by term.

The rest is the operator route: polynomials in pi and v with Fraction
coefficients.  A value is a dict {(i, j): c} standing for the sum of
c pi^i v^j, with no zero c.  The operator T f(v) = integral of f over
(0, pi/2 - v) is taken term by term, by the binomial expansion of
(pi/2 - v)^(j+1); nothing here calls ``VPiPoly.integral_to_reflection``.
"""

import math
from collections import defaultdict
from fractions import Fraction

ONE = {(0, 0): Fraction(1)}


def bernoulli_numbers(top: int) -> list:
    """[B_0, ..., B_top] from sum_{m<=k} C(k+1, m) B_m = 0, summed over Fractions."""
    known = [Fraction(1)]
    for k in range(1, top + 1):
        known.append(-sum(math.comb(k + 1, m) * known[m] for m in range(k)) / (k + 1))
    return known


def collect(pairs) -> dict:
    """{(i, j): c} from ((i, j), c) pairs: equal keys summed, zeros dropped."""
    acc = defaultdict(Fraction)
    for key, c in pairs:
        acc[key] += c
    return {key: c for key, c in acc.items() if c}


def from_vpipoly(value) -> dict:
    """VPiPoly(d, nums, den) = sum_i nums[i]/den 2^(i-d) pi^(d-i) v^i."""
    d = value.degree
    return collect(
        ((d - i, i), Fraction(c * 2**i, value.denominator * 2**d))
        for i, c in enumerate(value.numerators)
    )


def add(p: dict, q: dict) -> dict:
    return collect([*p.items(), *q.items()])


def mul(p: dict, q: dict) -> dict:
    return collect(((i + k, j + l), a * b) for (i, j), a in p.items() for (k, l), b in q.items())


def reflect(p: dict) -> dict:
    """p with v -> pi/2 - v, each (pi/2 - v)^j expanded by the binomial theorem."""
    return collect(
        ((i + j - m, m), c * math.comb(j, m) * (-1) ** m / 2 ** (j - m))
        for (i, j), c in p.items()
        for m in range(j + 1)
    )


def antiderivative(p: dict) -> dict:
    """The integral of p from 0 to v."""
    return {(i, j + 1): c / (j + 1) for (i, j), c in p.items()}


def derivative(p: dict) -> dict:
    return collect(((i, j - 1), c * j) for (i, j), c in p.items() if j)


def at_half_pi(p: dict) -> tuple:
    """p at v = pi/2 as ((pi power, coeff), ...) by power, the form of PiMultiple.terms."""
    value = collect(((i + j, 0), c / 2**j) for (i, j), c in p.items())
    return tuple(sorted((i, c) for (i, _), c in value.items()))


def apply_operator(p: dict) -> dict:
    """T p: the integral of p over (0, pi/2 - v)."""
    return reflect(antiderivative(p))


def integral_to_half_pi(p: dict) -> tuple:
    """The integral of p over (0, pi/2), in the form of ``at_half_pi``."""
    return at_half_pi(antiderivative(p))


def iterate(n: int) -> dict:
    """T^n 1."""
    p = ONE
    for _ in range(n):
        p = apply_operator(p)
    return p
