"""Closed forms for linear recurrences.

Every closed form here is one weighted power sum over the characteristic
roots, x_k = sum_m W_m r_m^k: `_power_sum` at one k, and `_power_sums` over
a `PowerTable`'s range of k, a column of sums built one root at a time from
each distinct root's row of powers.  `_powers`
(r ** k, infinite past float range) and `_finite` (TermOverflow on a
non-finite term) hold the overflow rule both share.  The routes differ only
in where the weights W come from:
- `solve_weights`: a `BinetForm`, solved from the first n+1 iterated terms,
  plus a constant weight (any order);
- `binet2`, `binet3`, `m_form`: one `MForm`, the paper's rotor-chain expansion
  sum_j M_j chain_j(k) folded over the chain rows sig_j as
  W_m = sum_j M_j value(sig_j[m]); M is the paper's seed coefficients, closed
  in the seeds, coefficients and resolvents (`_seed_form`), except that
  m_form solves it from the seeds at orders 3 and 4;
- `component`: one chain row, W_m = value(sig_j[m]), the signed rows divided
  by sigma1 (order 2) or D = sigma1^3 - sigma2^3 (order 3).

`verify` checks each applicable form against iteration block by block: for
each block of `_BLOCK` consecutive k it reads that many exact terms, builds
one power table shared by every form, and folds each form's errors,
`form.terms(table)`, into the path's running max.  Memory stays O(block)
however large kmax is, and the terms are bit-identical to `evaluate(k)`.

Each characteristic polynomial is solved once: every form reads the roots,
resolvents and divisor from one `roots.root_analysis` of the coefficients.
`solve_weights`, `_seed_form` (behind binet2, binet3 and verify) and `m_form`
remember their forms, as the analysis remembers the roots: each keeps its
last `roots._MEMO_SIZE` (16) results keyed by `repr` of the arguments, so a
repeated call, verify's included, returns the stored form bit for bit.
Refusals are not stored; they are raised again on every call.
"""
from __future__ import annotations

import cmath
from itertools import chain, islice, repeat
from operator import add, attrgetter, mul, sub, truediv

from .errors import ArityMismatch, DegenerateRoots, SingularSystem, TermOverflow, UnsupportedDegree
from .record import Record
from .recurrence import Recurrence, as_float, exact_terms, iterate
from .roots import CHAIN_ROWS, _memo, root_analysis
# Not called here: the benchmark's tracer patches these names on this module.
from .roots import _cubic_labelled, cubic_roots, numeric_roots, quadratic_roots  # noqa: F401
from .unity import rotor_value

_INT_SNAP_LIMIT = 2.0 ** 52
_BLOCK = 4096  # consecutive k that verify evaluates at once


def _powers(roots, ks) -> list:
    """r ** k over paired roots and exponents (each re-iterable or endless);
    a power past float range is an infinity, which `_finite` then refuses."""
    try:
        return list(map(pow, roots, ks))
    except OverflowError:
        powers = []
        for r, k in zip(roots, ks):
            try:
                powers.append(r ** k)
            except OverflowError:
                powers.append(cmath.inf)
        return powers


def _finite(total, k: int):
    """The closed-form term at k, or TermOverflow where it left float range."""
    if not cmath.isfinite(total):
        raise TermOverflow(f"the closed-form term at k={k} is beyond float range")
    return total


def _power_sum(weights, roots, k: int) -> complex:
    """sum(w_m * r_m^k) over paired weights and roots; TermOverflow beyond float range."""
    return _finite(sum(map(mul, weights, _powers(roots, repeat(k)))), k)


class PowerTable:
    """Each root's powers r^k for k = first..kmax, computed on first lookup
    and shared by every form evaluated against this table.

    Rows are keyed by repr, which tells a float from a complex and 0.0 from
    -0.0, so a shared row holds exactly the bits `r ** k` gives each root.
    """

    __slots__ = ("ks", "_rows")

    def __init__(self, kmax: int, first: int = 0):
        self.ks = range(first, kmax + 1)
        self._rows = {}

    def row(self, r) -> list:
        key = repr(r)
        row = self._rows.get(key)
        if row is None:
            row = self._rows[key] = _powers(repeat(r), self.ks)
        return row


def _power_sums(weights, roots, table: PowerTable):
    """_power_sum(weights, roots, k) for each k of table.ks, in order; a term
    beyond float range raises TermOverflow once the caller reaches it.

    The column of sums starts at int 0 and adds one root's w * r^k at a
    time, the additions `sum` makes at one k, in the same order."""
    sums = [0] * len(table.ks)
    for w, powers in zip(weights, map(table.row, roots)):
        sums = list(map(add, sums, map(mul, repeat(w), powers)))
    if all(map(cmath.isfinite, sums)):
        return sums
    return map(_finite, sums, table.ks)


def _fold(coefficients, values) -> tuple:
    """One weight per root, W_m = sum_j M_j * values[j][m]."""
    return tuple(sum(map(mul, coefficients, col)) for col in zip(*values))


class TermValue(Record):
    __slots__ = _fields = ("value", "nearest", "distance")

    def __init__(self, value: complex, nearest: int | None = None, distance: float | None = None):
        super().__init__(value, nearest, distance)


class BinetForm(Record):
    """x_k = sum(weights[j] * roots[j]^k) + weights[-1]."""

    __slots__ = _fields = ("roots", "weights", "source")

    def evaluate(self, k: int) -> complex:
        return _power_sum(self.weights, self.roots.roots, k) + self.weights[-1]

    def terms(self, table: PowerTable):
        """evaluate(k) for each k of table.ks, the powers read from table."""
        return map(add, _power_sums(self.weights, self.roots.roots, table), repeat(self.weights[-1]))


class MForm(Record):
    """x_k = sum_j M_j * chain_j(k), chain_j(k) = sum_m value(sig_j[m]) * roots[m]^k.

    The rows sig_j are `CHAIN_ROWS[order]`, folded once into one weight per
    root, W_m = sum_j M_j * value(sig_j[m]), so each term is a single power sum.
    `signatures` and `root_weights` are computed, not passed; `root_weights`
    is left out of repr, equality and hash.
    """

    _fields = ("order", "coefficients", "signatures", "roots")
    __slots__ = _fields + ("root_weights",)

    def __init__(self, order: int, coefficients: tuple, roots: tuple):
        if order not in CHAIN_ROWS:
            raise UnsupportedDegree(f"chain rows cover orders 2-4, not {order}")
        if not len(coefficients) == len(roots) == order:
            raise ArityMismatch(f"order {order} needs {order} coefficients and roots")
        super().__init__(order, coefficients, CHAIN_ROWS[order], roots)
        object.__setattr__(self, "root_weights", _fold(coefficients, _M_VALUES[order]))

    def evaluate(self, k: int) -> float:
        return _power_sum(self.root_weights, self.roots, k).real

    def terms(self, table: PowerTable):
        """evaluate(k) for each k of table.ks, the powers read from table."""
        return map(attrgetter("real"), _power_sums(self.root_weights, self.roots, table))


# value(sig_j[m]) of every chain row
_M_VALUES = {
    n: tuple(tuple(rotor_value(s) for s in sig) for sig in sigs)
    for n, sigs in CHAIN_ROWS.items()
}


def _guard_distinct(separation: float, rec: Recurrence):
    if rec.order >= 2 and separation <= 1e-7 * (1.0 + max(abs(c) for c in rec.coeffs)):
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


@_memo
def solve_weights(rec: Recurrence) -> BinetForm:
    """Solve x_k = sum(w_j r_j^k) + w_const from the first n+1 terms.

    Repeated roots are rejected first; a root at 1 is rejected next because
    it makes the constant column a copy of a root-power column.
    """
    rs = root_analysis(rec.coeffs).rootset
    _guard_distinct(rs.min_separation, rec)
    if any(abs(r - 1.0) <= 1e-9 for r in rs.roots):
        raise SingularSystem("a characteristic root at 1 collides with the constant column")
    n = rec.order
    xs = iterate(rec, n + 1)
    matrix = [[r ** i for r in rs.roots] + [1 + 0j] for i in range(n + 1)]
    sol = _solve(matrix, [complex(as_float(x)) for x in xs])
    return BinetForm(rs, tuple(sol), rec)


def closed_term(form: BinetForm, k: int) -> TermValue:
    """Evaluate the weights form at k; integral sources also get the nearest
    integer and the distance to it (within exact-float range)."""
    value = form.evaluate(k)
    if form.source.integral and abs(value.real) < _INT_SNAP_LIMIT:
        nearest = round(value.real)
        return TermValue(value, nearest, abs(value - nearest))
    return TermValue(value)


def _refuse_zero(analysis):
    """Refuse a repeated root: a zero divisor of the signed chains."""
    if analysis.divisor == 0:
        name = "sigma1" if len(analysis.sigmas) == 1 else "D = sigma1^3 - sigma2^3"
        raise DegenerateRoots(f"repeated root: {name} = 0")


@_memo
def _seed_form(rec: Recurrence, n: int) -> MForm:
    """binet{n}'s chain form: the paper's seed coefficients M over the order-n
    chain rows.  Any n but rec.order is refused, so the memo holds one form
    per recurrence.  Order 2: M = (x0/2, (2 x1 - c1 x0)/(2 sigma1)).
    Order 3: M = (x0/3, -N2/(3D), N1/(3D)) with
    N1 = 9 s1 x2 - 3(2 c2 s1 + s2^2) x1 - ((c2^2 + 6 c1) s1 - c2 s2^2) x0
    and N2 the same with s1 and s2 exchanged.
    """
    if rec.order != n:
        raise ArityMismatch(f"binet{n} needs an order-{n} recurrence")
    a = root_analysis(rec.coeffs)
    _refuse_zero(a)
    roots, sigmas, d = a.labelled, a.sigmas, a.divisor
    if n == 2:
        x0, x1 = map(as_float, rec.seeds)
        return MForm(n, (complex(x0) / 2.0, (2.0 * x1 - rec.coeffs[1] * x0) / (2.0 * d)), roots)
    _, c1, c2 = rec.coeffs
    x0, x1, x2 = map(as_float, rec.seeds)

    def numerator(s1, s2):
        return 9.0 * s1 * x2 - 3.0 * (2.0 * c2 * s1 + s2 * s2) * x1 \
            - ((c2 * c2 + 6.0 * c1) * s1 - c2 * s2 * s2) * x0
    n1, n2 = numerator(*sigmas), numerator(*reversed(sigmas))
    return MForm(n, (x0 / 3.0, -n2 / (3.0 * d), n1 / (3.0 * d)), roots)


def binet2(rec: Recurrence, k: int) -> float:
    """Order-2 seed-coefficient closed form.

    x_k = ((2 x1 - c1 x0)/2) * (r1^k - r2^k)/sigma1 + (x0/2) * (r1^k + r2^k)
    with sigma1 = sqrt(c1^2 + 4 c0), r1,r2 = (c1 +/- sigma1)/2.
    """
    return _seed_form(rec, 2).evaluate(k)


def binet3(rec: Recurrence, k: int) -> float:
    """Order-3 seed-coefficient closed form built on the resolvents.

    With D = sigma1^3 - sigma2^3, the rotor-weighted power chains
    P_k = r1^k + w r2^k + w^2 r3^k and Q_k = r1^k + w^2 r2^k + w r3^k
    (w the primitive cube root) and N1, N2 as in `_seed_form`,
    x_k = (N1/3)(Q_k/D) - (N2/3)(P_k/D) + (x0/3)(r1^k + r2^k + r3^k).
    """
    return _seed_form(rec, 3).evaluate(k)


@_memo
def m_form(rec: Recurrence) -> MForm:
    """Rotor-expansion coefficients for orders 2-4.

    Order 2 has closed coefficients M1 = x0/2, M2 = (2 x1 - c1 x0)/(2 sigma1);
    orders 3 and 4 solve the basis system chain_j(k) for k = 0..n-1 against
    the seeds.  Distinct roots required throughout.
    """
    n = rec.order
    if n not in (2, 3, 4):
        raise UnsupportedDegree(f"rotor expansion covers orders 2-4, not {n}")
    a = root_analysis(rec.coeffs)
    if n == 2:
        form = _seed_form(rec, 2)
        _guard_distinct(a.rootset.min_separation, rec)
        return form
    _guard_distinct(a.rootset.min_separation, rec)
    matrix = [[_power_sum(row, a.labelled, k) for row in _M_VALUES[n]] for k in range(n)]
    coeffs = tuple(_solve(matrix, [complex(as_float(x)) for x in rec.seeds]))
    return MForm(n, coeffs, tuple(a.labelled))


# component kind -> (order, chain row of CHAIN_ROWS[order])
_CHAINS = {"L": (2, 0), "F": (2, 1), "C": (3, 0), "B": (3, 1), "A": (3, 2)}


def component(rec: Recurrence, kind: str, k: int) -> complex:
    """Evaluate one named chain of the closed form at k.

    Order 2: "F" = (r1^k - r2^k)/sigma1, "L" = r1^k + r2^k.
    Order 3: "A" = Q_k/D, "B" = P_k/D, "C" = r1^k + r2^k + r3^k.
    "L" and "C" have no divisor, so they answer on repeated roots too.
    """
    if kind not in _CHAINS:
        raise ArityMismatch(f"unknown component kind {kind!r}")
    n, row = _CHAINS[kind]
    if rec.order != n:
        raise ArityMismatch(f"component {kind} needs an order-{n} recurrence")
    a = root_analysis(rec.coeffs)
    if row == 0:
        return _power_sum(_M_VALUES[n][0], a.labelled, k)
    _refuse_zero(a)
    return _power_sum(_M_VALUES[n][row], a.labelled, k) / a.divisor


class PathCheck(Record):
    __slots__ = _fields = ("max_rel_err", "passed")


class VerifyReport(Record):
    __slots__ = _fields = ("kmax", "rel_tol", "paths", "passed")


def verify(rec: Recurrence, kmax: int, rel_tol: float = 1e-8) -> VerifyReport:
    """Compare every applicable closed form against exact iteration.

    Relative error uses max(1, |exact|) in the denominator so early zeros
    do not blow up the measure.  Solver errors propagate to the caller first,
    then an exact term beyond float range at any k <= kmax raises
    TermOverflow, then each path's first error, in path order.
    """
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    forms = {"weights": solve_weights(rec)}
    if rec.order in (2, 3):
        forms[f"binet{rec.order}"] = _seed_form(rec, rec.order)
    if rec.order in (2, 3, 4):
        forms["m_form"] = m_form(rec)

    # each distinct form is checked once: at order 2, m_form is binet2's form
    checks = {id(form): form for form in forms.values()}
    worst = dict.fromkeys(checks, ())  # each form's running max, carried between blocks
    held = {}  # each form's first error, raised once every exact term converts
    source = exact_terms(rec)
    for lo in range(0, kmax + 1, _BLOCK):
        hi = min(lo + _BLOCK, kmax + 1)
        exact = list(map(as_float, islice(source, hi - lo)))
        scale = [x if x > 1.0 else 1.0 for x in map(abs, exact)]  # max(1.0, |x|)
        table = PowerTable(hi - 1, lo)
        for key, form in checks.items():
            if key in held:
                continue
            # |v - x| / max(1, |x|) for each term v and exact x, in k order
            errors = map(truediv, map(abs, map(sub, form.terms(table), exact)), scale)
            try:
                worst[key] = (max(chain(worst[key], errors)),)
            except TermOverflow as exc:
                held[key] = exc
    for key in checks:  # in path order
        if key in held:
            raise held[key]
    paths = {}
    for name, form in forms.items():
        (w,) = worst[id(form)]
        paths[name] = PathCheck(w, w <= rel_tol)
    return VerifyReport(kmax, rel_tol, paths, all(p.passed for p in paths.values()))
