"""Linear recurrences with constant coefficients: exact iteration,
normalization from general form, the characteristic polynomial, and the
ratio-of-successive-terms estimator.

Iteration is the ground truth everything else is checked against, so the
all-integer case runs in exact arbitrary-precision arithmetic.
"""
from __future__ import annotations

from collections import deque
from itertools import islice
from operator import mul

from .errors import (
    ArityMismatch, NonConvergent, TermOverflow, ZeroDivisionInRatio, ZeroLeadingCoefficient,
)
from .record import Record


def as_float(value) -> float:
    """A coefficient, seed or exact term as a float for the closed forms and
    root solvers; an exact value beyond float range raises TermOverflow."""
    try:
        return float(value)
    except OverflowError:
        raise TermOverflow("an exact value is beyond float range") from None


def _is_integral(value) -> bool:
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


class Recurrence(Record):
    """x_{k+n} = c_{n-1} x_{k+n-1} + ... + c_0 x_k with seeds x_0..x_{n-1}.

    `integral` (every coefficient and seed an integer) is computed, not passed.
    """

    __slots__ = _fields = ("coeffs", "seeds", "integral")

    def __init__(self, coeffs, seeds):
        coeffs, seeds = tuple(coeffs), tuple(seeds)
        if len(coeffs) < 1:
            raise ArityMismatch("recurrence needs at least one coefficient")
        if len(seeds) != len(coeffs):
            raise ArityMismatch(
                f"{len(coeffs)} coefficients need {len(coeffs)} seeds, got {len(seeds)}"
            )
        super().__init__(coeffs, seeds, all(_is_integral(v) for v in coeffs + seeds))

    @property
    def order(self) -> int:
        return len(self.coeffs)


class CharPoly(Record):
    """Monic characteristic polynomial x^n = c_{n-1} x^(n-1) + ... + c_0."""

    __slots__ = _fields = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: tuple):  # c_0..c_{n-1}
        if degree != len(coeffs):
            raise ArityMismatch("degree must equal the coefficient count")
        super().__init__(degree, coeffs)

    def value(self, z: complex) -> complex:
        """p(z) = z^n - c_{n-1} z^(n-1) - ... - c_0, by Horner."""
        acc = complex(1)
        for c in reversed(self.coeffs):
            acc = acc * z - c
        return acc


def from_general(a) -> tuple:
    """Coefficients c_j = -a_j/a_n from the general form sum(a_j x_{k+j}) = 0.

    Exact division (results stay integers when they are integers).
    """
    from fractions import Fraction

    a = list(a)
    if len(a) < 2:
        raise ArityMismatch("general form needs at least a_0 and a_1")
    if a[-1] == 0:
        raise ZeroLeadingCoefficient("a_n must be nonzero")
    out = []
    for aj in a[:-1]:
        c = -Fraction(aj) / Fraction(a[-1])
        out.append(int(c) if c.denominator == 1 else float(c))
    return tuple(out)


def exact_terms(rec: Recurrence):
    """x_0, x_1, ... without end; exact integers when the recurrence is
    integral.  Each step sums coeffs times the last n terms, so memory stays
    O(n) however far the caller reads."""
    if rec.integral:
        window = [int(x) for x in rec.seeds]
        coeffs = [int(c) for c in rec.coeffs]
    else:
        window = [float(x) for x in rec.seeds]
        coeffs = [float(c) for c in rec.coeffs]
    yield from window
    window = deque(window, len(coeffs))
    while True:
        x = sum(map(mul, coeffs, window))
        window.append(x)
        yield x


def iterate(rec: Recurrence, count: int):
    """First `count` terms of `exact_terms`."""
    return list(islice(exact_terms(rec), count))


def characteristic_polynomial(rec: Recurrence) -> CharPoly:
    return CharPoly(rec.order, rec.coeffs)


def characteristic_ratio(rec: Recurrence, iters: int) -> float:
    """Estimate lim x_{k+1}/x_k from the term at k = iters-1.

    The last five ratio estimates must agree to 1e-6 (Cauchy-style check);
    otherwise the limit is not considered established.
    """
    n = rec.order
    if iters < n + 2:
        raise ValueError(f"iters must be at least order+2 = {n + 2}")
    first = max(iters - 5, 0)
    seq = list(islice(exact_terms(rec), first, iters + 1))

    ratios = []
    for k, (x, after) in enumerate(zip(seq, seq[1:]), first):
        if x == 0:
            raise ZeroDivisionInRatio(f"term x_{k} is zero at a probe index")
        ratios.append(after / x)  # exact integers: one rounding of the exact ratio
    for prev, cur in zip(ratios, ratios[1:]):
        if abs(cur - prev) > 1e-6:
            raise NonConvergent(
                f"ratio estimates still moving by {abs(cur - prev):.3g} near k={iters}"
            )
    return ratios[-1]
