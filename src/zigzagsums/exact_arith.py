"""Exact operator iterates: polynomials homogeneous in (pi, v) over the rationals.

The integral operator T f(v) = integral of f over (0, pi/2 - v) maps a
polynomial homogeneous of degree d in (pi, v) to one of degree d + 1, so its
iterates on the constant 1 are T^n 1 = (pi/2)^n q_n(2v/pi) with rational
polynomials q_0 = 1 and q_{n+1}(w) = integral of q_n over (0, 1 - w).

VPiPoly holds one such value as its degree and the coefficients of q as
integer numerators over one positive denominator, in lowest terms, so equal
values compare equal.  Its one operation, ``integral_to_reflection``, is a
step of T on integers alone.

Every value and operation stays exact: the module holds no floats and no
text form; only ``euler_sums.PiMultiple`` turns a pi multiple into either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class VPiPoly:
    """(pi/2)^degree q(2v/pi), with q(w) = sum_i numerators[i] w^i / denominator.

    For example pi^2/8 - v^2/2 is VPiPoly(2, (1, 0, -1), 2).  The
    constructor drops trailing zero numerators, makes the denominator
    positive and cancels the common content; zero is VPiPoly(0, ()).  q may
    not have a larger degree than the value, so every pi power
    (pi/2)^(degree - i) is a polynomial one.
    """

    degree: int
    numerators: tuple[int, ...]
    denominator: int = 1

    def __post_init__(self) -> None:
        numerators = list(self.numerators)
        while numerators and not numerators[-1]:
            numerators.pop()
        if self.degree < max(len(numerators) - 1, 0):
            raise ValueError(f"degree {self.degree} is negative or below the degree of q")
        if not self.denominator:
            raise ZeroDivisionError("zero denominator")
        common = math.gcd(self.denominator, *numerators)
        if self.denominator < 0:
            common = -common
        object.__setattr__(self, "degree", self.degree if numerators else 0)
        object.__setattr__(self, "numerators", tuple(c // common for c in numerators))
        object.__setattr__(self, "denominator", self.denominator // common)

    @classmethod
    def one(cls) -> VPiPoly:
        return cls(0, (1,))

    def integral_to_reflection(self) -> VPiPoly:
        """The exact integral from 0 to pi/2 - v, a value of degree + 1.

        With u = (pi/2) x and w = 2v/pi it is (pi/2)^(degree+1) Q(1 - w),
        where Q is the antiderivative of q that vanishes at 0.  Q's
        coefficients are taken over the common denominator lcm(1..m + 1)
        for q of degree m, Q(x) becomes Q(x + 1) by a Taylor shift done
        with integer additions, and x -> -w flips the odd coefficients'
        signs; the constructor cancels the common content.
        """
        scale = math.lcm(*range(1, len(self.numerators) + 1))
        coeffs = [0] + [c * (scale // (i + 1)) for i, c in enumerate(self.numerators)]
        top = len(coeffs) - 1
        for i in range(top):  # coeffs of Q(x) -> coeffs of Q(x + 1)
            for j in range(top - 1, i - 1, -1):
                coeffs[j] += coeffs[j + 1]
        return VPiPoly(
            self.degree + 1,
            tuple(-c if j % 2 else c for j, c in enumerate(coeffs)),
            self.denominator * scale,
        )
