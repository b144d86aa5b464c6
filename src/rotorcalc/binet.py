"""Closed forms for linear recurrences.

Three routes to the same numbers: a general weights-on-root-powers form
solved from the seeds, the explicit seed-coefficient formulas for orders 2
and 3, and the rotor-expansion (M-coefficient) form whose basis chains are
root powers weighted by roots of unity.  `verify` cross-checks all routes
that apply against exact iteration.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from .errors import ArityMismatch, DegenerateRoots, SingularSystem, UnsupportedDegree
from .recurrence import Recurrence, characteristic_polynomial, iterate
from .roots import (
    _OMEGA,
    _OMEGA2,
    RootSet,
    _cubic_labelled,
    _min_separation,
    cubic_roots,
    numeric_roots,
    quadratic_roots,
)
from .unity import HALF, IDENTITY, QUARTER, THIRD, THREE_QUARTERS, TWO_THIRDS, rotor_value

_INT_SNAP_LIMIT = 2.0 ** 52


@dataclass(frozen=True)
class TermValue:
    value: complex
    nearest: int | None = None
    distance: float | None = None


@dataclass(frozen=True)
class BinetForm:
    """x_k = sum(weights[j] * roots[j]^k) + weights[-1]."""

    roots: RootSet
    weights: tuple
    source: Recurrence


@dataclass(frozen=True)
class MForm:
    """x_k = sum_j M_j * chain_j(k), chain_j(k) = sum_m value(sig_j[m]) * roots[m]^k."""

    order: int
    coefficients: tuple
    signatures: tuple
    roots: tuple
    # value(sig_j[m]), computed once rather than at every k
    signature_values: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = tuple(tuple(rotor_value(s) for s in sig) for sig in self.signatures)
        object.__setattr__(self, "signature_values", values)

    def evaluate(self, k: int) -> float:
        total = 0j
        powers = [r ** k for r in self.roots]
        for m_j, wrow in zip(self.coefficients, self.signature_values):
            chain = sum(w * p for w, p in zip(wrow, powers))
            total += m_j * chain
        return total.real


def _coeff_scale(rec: Recurrence) -> float:
    return 1.0 + max(abs(c) for c in rec.coeffs)


def _rootset_for(rec: Recurrence) -> RootSet:
    n = rec.order
    if n == 2:
        return quadratic_roots(rec.coeffs[0], rec.coeffs[1])[0]
    if n == 3:
        return cubic_roots(rec.coeffs[0], rec.coeffs[1], rec.coeffs[2])
    return numeric_roots(characteristic_polynomial(rec))


def _guard_distinct(separation: float, rec: Recurrence):
    if rec.order >= 2 and separation <= 1e-7 * _coeff_scale(rec):
        raise DegenerateRoots(f"characteristic roots separated by only {separation:.3g}")


def _solve(matrix, rhs) -> list:
    """Solve matrix @ x = rhs by Gaussian elimination with partial pivoting.

    The systems here are at most 5x5.  Pivots are chosen by |re| + |im|, as
    LAPACK's getrf does, and an exactly zero pivot raises SingularSystem,
    the condition under which getrf reports a singular matrix.
    """
    n = len(rhs)
    a = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        piv = max(range(col, n), key=lambda r: abs(a[r][col].real) + abs(a[r][col].imag))
        if a[piv][col] == 0:
            raise SingularSystem(f"singular matrix: zero pivot in column {col}")
        a[col], a[piv] = a[piv], a[col]
        top = a[col]
        for row in a[col + 1:]:
            f = row[col] / top[col]
            for c in range(col + 1, n + 1):
                row[c] -= f * top[c]
    x = [0j] * n
    for i in reversed(range(n)):
        row = a[i]
        x[i] = (row[n] - sum(row[j] * x[j] for j in range(i + 1, n))) / row[i]
    return x


def solve_weights(rec: Recurrence) -> BinetForm:
    """Solve x_k = sum(w_j r_j^k) + w_const from the first n+1 terms.

    Repeated roots are rejected first; a root at 1 is rejected next because
    it makes the constant column a copy of a root-power column.
    """
    rs = _rootset_for(rec)
    _guard_distinct(rs.min_separation, rec)
    if any(abs(r - 1.0) <= 1e-9 for r in rs.roots):
        raise SingularSystem("a characteristic root at 1 collides with the constant column")
    n = rec.order
    xs = iterate(rec, n + 1)
    matrix = [[r ** i for r in rs.roots] + [1 + 0j] for i in range(n + 1)]
    sol = _solve(matrix, [complex(float(x)) for x in xs])
    return BinetForm(rs, tuple(sol), rec)


def closed_term(form: BinetForm, k: int) -> TermValue:
    """Evaluate the weights form at k; integral sources also get the nearest
    integer and the distance to it (within exact-float range)."""
    value = sum(w * r ** k for w, r in zip(form.weights, form.roots.roots))
    value = value + form.weights[-1]
    if form.source.integral and abs(value.real) < _INT_SNAP_LIMIT:
        nearest = round(value.real)
        return TermValue(value, nearest, abs(value - nearest))
    return TermValue(value)


def binet2(rec: Recurrence, k: int) -> float:
    """Order-2 seed-coefficient closed form.

    x_k = ((2 x1 - c1 x0)/2) * (r1^k - r2^k)/sigma1 + (x0/2) * (r1^k + r2^k)
    with sigma1 = sqrt(c1^2 + 4 c0), r1,r2 = (c1 +/- sigma1)/2.
    """
    return _binet2_at(rec)(k)


def _binet2_at(rec: Recurrence):
    """binet2's root solve, done once; returns k -> x_k."""
    if rec.order != 2:
        raise ArityMismatch("binet2 needs an order-2 recurrence")
    c0, c1 = rec.coeffs
    x0, x1 = rec.seeds
    disc = c1 * c1 + 4.0 * c0
    if disc == 0:
        raise DegenerateRoots("repeated root: c1^2 + 4 c0 = 0")
    sigma1 = cmath.sqrt(complex(disc))
    r1 = (c1 + sigma1) / 2.0
    r2 = (c1 - sigma1) / 2.0
    m_diff = (2.0 * x1 - c1 * x0) / 2.0
    m_total = x0 / 2.0

    def at(k: int) -> float:
        diff = (r1 ** k - r2 ** k) / sigma1
        total = (r1 ** k + r2 ** k)
        return (m_diff * diff + m_total * total).real
    return at


def binet3(rec: Recurrence, k: int) -> float:
    """Order-3 seed-coefficient closed form built on the resolvents.

    With D = sigma1^3 - sigma2^3 and the rotor-weighted power chains
    P_k = r1^k + w r2^k + w^2 r3^k and Q_k = r1^k + w^2 r2^k + w r3^k
    (w the primitive cube root), the term is

      x_k = (N1/3)(Q_k/D) - (N2/3)(P_k/D) + (x0/3)(r1^k + r2^k + r3^k)

    where N1 = 9 s1 x2 - 3(2 c2 s1 + s2^2) x1 - ((c2^2 + 6 c1) s1 - c2 s2^2) x0
    and N2 is the same with s1 and s2 exchanged.
    """
    return _binet3_at(rec)(k)


def _binet3_at(rec: Recurrence):
    """binet3's cubic solve and seed numerators, done once; returns k -> x_k."""
    if rec.order != 3:
        raise ArityMismatch("binet3 needs an order-3 recurrence")
    c0, c1, c2 = rec.coeffs
    x0, x1, x2 = rec.seeds
    (r1, r2, r3), res = _cubic_labelled(c0, c1, c2)
    s1, s2 = res.sigmas
    d = s1 ** 3 - s2 ** 3
    if d == 0:
        raise DegenerateRoots("repeated root: sigma1^3 = sigma2^3")
    n1 = 9.0 * s1 * x2 - 3.0 * (2.0 * c2 * s1 + s2 * s2) * x1 \
        - ((c2 * c2 + 6.0 * c1) * s1 - c2 * s2 * s2) * x0
    n2 = 9.0 * s2 * x2 - 3.0 * (2.0 * c2 * s2 + s1 * s1) * x1 \
        - ((c2 * c2 + 6.0 * c1) * s2 - c2 * s1 * s1) * x0
    m_q, m_p, m_s = n1 / 3.0, n2 / 3.0, x0 / 3.0

    def at(k: int) -> float:
        p1, p2, p3 = r1 ** k, r2 ** k, r3 ** k
        q_k = p1 + _OMEGA2 * p2 + _OMEGA * p3
        p_k = p1 + _OMEGA * p2 + _OMEGA2 * p3
        s_k = p1 + p2 + p3
        return (m_q * (q_k / d) - m_p * (p_k / d) + m_s * s_k).real
    return at


_M_SIGNATURES = {
    2: ((IDENTITY, IDENTITY), (IDENTITY, HALF)),
    3: (
        (IDENTITY, IDENTITY, IDENTITY),
        (IDENTITY, THIRD, TWO_THIRDS),
        (IDENTITY, TWO_THIRDS, THIRD),
    ),
    4: (
        (IDENTITY, IDENTITY, IDENTITY, IDENTITY),
        (IDENTITY, QUARTER, THREE_QUARTERS, HALF),
        (IDENTITY, HALF, QUARTER, THREE_QUARTERS),
        (IDENTITY, THREE_QUARTERS, HALF, QUARTER),
    ),
}


def m_form(rec: Recurrence) -> MForm:
    """Rotor-expansion coefficients for orders 2-4.

    Order 2 has closed coefficients M1 = x0/2, M2 = (2 x1 - c1 x0)/(2 sigma1);
    orders 3 and 4 solve the basis system chain_j(k) for k = 0..n-1 against
    the seeds.  Distinct roots required throughout.
    """
    n = rec.order
    if n not in (2, 3, 4):
        raise UnsupportedDegree(f"rotor expansion covers orders 2-4, not {n}")
    sigs = _M_SIGNATURES[n]
    if n == 2:
        c0, c1 = rec.coeffs
        x0, x1 = rec.seeds
        rs, sigma1 = quadratic_roots(c0, c1)
        _guard_distinct(rs.min_separation, rec)
        labelled = ((c1 + sigma1) / 2.0, (c1 - sigma1) / 2.0)
        coeffs = (complex(x0) / 2.0, (2.0 * x1 - c1 * x0) / (2.0 * sigma1))
        return MForm(2, coeffs, sigs, labelled)
    if n == 3:
        labelled, _ = _cubic_labelled(*rec.coeffs)
        _guard_distinct(_min_separation(labelled), rec)
    else:
        rs = _rootset_for(rec)
        _guard_distinct(rs.min_separation, rec)
        labelled = rs.roots
    weights = [[rotor_value(s) for s in sig] for sig in sigs]
    matrix = [
        [sum(w * r ** k for w, r in zip(wrow, labelled)) for wrow in weights]
        for k in range(n)
    ]
    sol = _solve(matrix, [complex(float(x)) for x in rec.seeds])
    return MForm(n, tuple(sol), sigs, tuple(labelled))


def component(rec: Recurrence, kind: str, k: int) -> complex:
    """Evaluate one named chain of the closed form at k.

    Order 2: "F" = (r1^k - r2^k)/sigma1, "L" = r1^k + r2^k.
    Order 3: "A" = Q_k/D, "B" = P_k/D, "C" = r1^k + r2^k + r3^k.
    """
    if kind in ("F", "L"):
        if rec.order != 2:
            raise ArityMismatch(f"component {kind} needs an order-2 recurrence")
        c0, c1 = rec.coeffs
        disc = c1 * c1 + 4.0 * c0
        sigma1 = cmath.sqrt(complex(disc))
        r1 = (c1 + sigma1) / 2.0
        r2 = (c1 - sigma1) / 2.0
        if kind == "L":
            return r1 ** k + r2 ** k
        if sigma1 == 0:
            raise DegenerateRoots("repeated root: c1^2 + 4 c0 = 0")
        return (r1 ** k - r2 ** k) / sigma1
    if kind in ("A", "B", "C"):
        if rec.order != 3:
            raise ArityMismatch(f"component {kind} needs an order-3 recurrence")
        (r1, r2, r3), res = _cubic_labelled(*rec.coeffs)
        p1, p2, p3 = r1 ** k, r2 ** k, r3 ** k
        if kind == "C":
            return p1 + p2 + p3
        s1, s2 = res.sigmas
        d = s1 ** 3 - s2 ** 3
        if d == 0:
            raise DegenerateRoots("repeated root: sigma1^3 = sigma2^3")
        if kind == "A":
            return (p1 + _OMEGA2 * p2 + _OMEGA * p3) / d
        return (p1 + _OMEGA * p2 + _OMEGA2 * p3) / d
    raise ArityMismatch(f"unknown component kind {kind!r}")


@dataclass(frozen=True)
class PathCheck:
    max_rel_err: float
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    kmax: int
    rel_tol: float
    paths: dict
    passed: bool


def verify(rec: Recurrence, kmax: int, rel_tol: float = 1e-8) -> VerifyReport:
    """Compare every applicable closed form against exact iteration.

    Relative error uses max(1, |exact|) in the denominator so early zeros
    do not blow up the measure.  Solver errors propagate to the caller.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    exact = iterate(rec, kmax + 1)

    evaluators = {}
    form = solve_weights(rec)
    evaluators["weights"] = lambda k: closed_term(form, k).value
    if rec.order == 2:
        evaluators["binet2"] = _binet2_at(rec)
    if rec.order == 3:
        evaluators["binet3"] = _binet3_at(rec)
    if rec.order in (2, 3, 4):
        mf = m_form(rec)
        evaluators["m_form"] = mf.evaluate

    paths = {}
    for name, fn in evaluators.items():
        worst = 0.0
        for k, want in enumerate(exact):
            got = fn(k)
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
        paths[name] = PathCheck(worst, worst <= rel_tol)
    return VerifyReport(kmax, rel_tol, paths, all(p.passed for p in paths.values()))
