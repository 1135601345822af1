"""Exact arithmetic: polynomials in pi over the rationals, and polynomials in v over them.

Two layers on top of fractions.Fraction, all immutable and exact:

  PiPoly        sum of c_d * pi^d with Fraction c_d, stored sparsely by degree
  VPiPoly       polynomial in a real variable v whose coefficients are PiPoly
                values, i.e. sum of p_j(pi) * v^j

VPiPoly carries the small calculus needed to apply the integral operator
f |-> integral of f from 0 to pi/2 - v symbolically: formal antiderivatives,
the reflection v |-> pi/2 - v, and definite integrals over (0, pi/2).

Every value and operation stays exact: the module holds no floats and no
text form; only ``euler_sums.PiMultiple`` turns a pi multiple into either.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

RationalLike = Union[Fraction, int]


def _canonical(terms) -> tuple:
    """Merge duplicate degrees, drop zeros, sort by degree."""
    acc: dict = {}
    for degree, coeff in terms:
        if degree < 0:
            raise ValueError(f"negative degree {degree}")
        acc[degree] = acc.get(degree, 0) + coeff
    return tuple(sorted((d, c) for d, c in acc.items() if c != 0))


@dataclass(frozen=True)
class PiPoly:
    """Polynomial in pi over the rationals, e.g. 1/4 + 1/8*pi^2.

    ``terms`` is a sorted tuple of (degree, coefficient) pairs with no zero
    coefficients; any iterable of pairs passed to the constructor is
    canonicalized, so structural equality is value equality.
    """

    terms: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "terms", _canonical((d, Fraction(c)) for d, c in self.terms)
        )

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, RationalLike]) -> PiPoly:
        return cls(tuple(coeffs.items()))

    @classmethod
    def rational(cls, value: RationalLike) -> PiPoly:
        return cls(((0, Fraction(value)),))

    @classmethod
    def pi_power(cls, degree: int, coeff: RationalLike = 1) -> PiPoly:
        return cls(((degree, Fraction(coeff)),))

    @classmethod
    def zero(cls) -> PiPoly:
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest pi-degree present, or -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    def __add__(self, other: PiPoly) -> PiPoly:
        return PiPoly(self.terms + other.terms)

    def __sub__(self, other: PiPoly) -> PiPoly:
        return self + (-other)

    def __neg__(self) -> PiPoly:
        return PiPoly(tuple((d, -c) for d, c in self.terms))

    def __mul__(self, other: Union[PiPoly, RationalLike]) -> PiPoly:
        if isinstance(other, PiPoly):
            return PiPoly(
                tuple(
                    (da + db, ca * cb)
                    for da, ca in self.terms
                    for db, cb in other.terms
                )
            )
        if isinstance(other, (int, Fraction)):
            return PiPoly(tuple((d, c * other) for d, c in self.terms))
        return NotImplemented

    __rmul__ = __mul__


HALF_PI = PiPoly.pi_power(1, Fraction(1, 2))

PiPolyLike = Union[PiPoly, Fraction, int]


def _as_pipoly(value: PiPolyLike) -> PiPoly:
    return value if isinstance(value, PiPoly) else PiPoly.rational(value)


@dataclass(frozen=True)
class VPiPoly:
    """Polynomial in v with PiPoly coefficients, e.g. pi^2/8 - v^2/2.

    Inputs are canonicalized exactly like PiPoly, so equal values compare
    equal.  The ring operations, composition, reflection and integrals are
    all exact.
    """

    terms: tuple[tuple[int, PiPoly], ...] = ()

    def __post_init__(self) -> None:
        merged: dict[int, PiPoly] = {}
        for j, p in self.terms:
            if j < 0:
                raise ValueError(f"negative degree {j}")
            p = _as_pipoly(p)
            merged[j] = merged[j] + p if j in merged else p
        object.__setattr__(
            self,
            "terms",
            tuple(sorted((j, p) for j, p in merged.items() if not p.is_zero())),
        )

    @classmethod
    def from_dict(cls, coeffs: Mapping[int, PiPolyLike]) -> VPiPoly:
        return cls(tuple(coeffs.items()))

    @classmethod
    def constant(cls, value: PiPolyLike) -> VPiPoly:
        return cls(((0, _as_pipoly(value)),))

    @classmethod
    def v_power(cls, degree: int, coeff: PiPolyLike = 1) -> VPiPoly:
        return cls(((degree, _as_pipoly(coeff)),))

    @classmethod
    def zero(cls) -> VPiPoly:
        return cls()

    @classmethod
    def one(cls) -> VPiPoly:
        return cls.constant(1)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest v-degree present, or -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    def __add__(self, other: VPiPoly) -> VPiPoly:
        return VPiPoly(self.terms + other.terms)

    def __sub__(self, other: VPiPoly) -> VPiPoly:
        return self + (-other)

    def __neg__(self) -> VPiPoly:
        return VPiPoly(tuple((j, -p) for j, p in self.terms))

    def __mul__(self, other: Union[VPiPoly, PiPolyLike]) -> VPiPoly:
        if isinstance(other, VPiPoly):
            return VPiPoly(
                tuple(
                    (ja + jb, pa * pb)
                    for ja, pa in self.terms
                    for jb, pb in other.terms
                )
            )
        if isinstance(other, (PiPoly, int, Fraction)):
            scalar = _as_pipoly(other)
            return VPiPoly(tuple((j, p * scalar) for j, p in self.terms))
        return NotImplemented

    __rmul__ = __mul__

    def compose(self, inner: VPiPoly) -> VPiPoly:
        """Substitute v -> inner(v), by Horner evaluation in the polynomial ring."""
        result = VPiPoly.zero()
        coeffs = dict(self.terms)
        for j in range(self.degree(), -1, -1):
            result = result * inner + VPiPoly.constant(coeffs.get(j, PiPoly.zero()))
        return result

    def evaluate(self, point: PiPoly) -> PiPoly:
        """Evaluate at a PiPoly value of v, exactly."""
        result = PiPoly.zero()
        coeffs = dict(self.terms)
        for j in range(self.degree(), -1, -1):
            result = result * point + coeffs.get(j, PiPoly.zero())
        return result

    def reflect(self) -> VPiPoly:
        """Substitute v -> pi/2 - v (binomial expansion via composition)."""
        return self.compose(_HALF_PI_MINUS_V)

    def derivative(self) -> VPiPoly:
        return VPiPoly(tuple((j - 1, p * j) for j, p in self.terms if j >= 1))

    def cumulative_integral(self) -> VPiPoly:
        """Formal antiderivative vanishing at 0: the integral from 0 to v."""
        return VPiPoly(
            tuple((j + 1, p * Fraction(1, j + 1)) for j, p in self.terms)
        )

    def integral_to_reflection(self) -> VPiPoly:
        """Exact integral from 0 to pi/2 - v, as a polynomial in v."""
        return self.cumulative_integral().reflect()

    def integral_to_half_pi(self) -> PiPoly:
        """Exact definite integral over (0, pi/2)."""
        return self.cumulative_integral().evaluate(HALF_PI)


# pi/2 - v, the argument of the reflection substitution
_HALF_PI_MINUS_V = VPiPoly(((0, HALF_PI), (1, PiPoly.rational(-1))))
