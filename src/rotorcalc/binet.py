"""Closed forms for linear recurrences.

Every closed form here is one weighted power sum over the characteristic
roots, x_k = sum_m W_m r_m^k: `_power_sum` at one k, and `_power_sums` over
a `PowerTable`'s range of k, a column of sums built one root at a time from
each distinct root's row of powers.  `_powers` (r ** k, infinite past float
range) and `_finite` (TermOverflow on a non-finite term) hold the overflow
rule both share.  The routes differ only in where the weights W come from:
- `solve_weights`: a `BinetForm`, the Vandermonde weights (`_vandermonde`) of
  the first n+1 iterated terms on the nodes (r_1, ..., r_n, 1), any order;
- `binet2`, `binet3`, `m_form`: one `MForm` per recurrence, built by
  `_chain_form`: the paper's rotor-chain expansion sum_j M_j chain_j(k) folded
  over the chain rows sig_j as W_m = sum_j M_j value(sig_j[m]).  At orders 2
  and 3, M is the paper's seed coefficients, closed in the seeds, coefficients
  and resolvents; at order 4, which the paper leaves open, M comes from the
  Vandermonde weights W of the seeds.  m_form is that same form behind the
  separation guard;
- `component`: one chain row, W_m = value(sig_j[m]), the signed rows divided
  by sigma1 (order 2) or D = sigma1^3 - sigma2^3 (order 3).

`verify` checks each applicable form against iteration block by block: for each
block of `_BLOCK` consecutive k it reads that many exact terms from
`exact_terms`, converts them with one `recurrence.as_floats` (an exact term
past float range is a TermOverflow), builds one power table shared by every
form, and folds each form's errors, `form.terms(table)`, into the path's
running max.  The table multiplies a complex root's powers for k <= 100 out of
CPython's own squaring chain for `complex ** int` (`_chain_powers`) and calls
pow beyond that, bit-identical to `r ** k` either way.  Memory stays O(block)
however large kmax is, and the terms are bit-identical to `evaluate(k)`.

Every form reads its roots from one `roots.root_analysis`.  `solve_weights`
and `_chain_form` (behind binet2, binet3, m_form and verify) keep their form on
the Recurrence (`_kept`), so a repeated call returns the same object.
"""
from __future__ import annotations

import cmath
from functools import wraps
from itertools import chain, islice, repeat
from operator import add, attrgetter, mul, sub, truediv

from .errors import ArityMismatch, DegenerateRoots, SingularSystem, TermOverflow, UnsupportedDegree
from .record import Record
from .recurrence import Recurrence, as_floats, exact_terms, iterate
from .roots import CHAIN_ROWS, root_analysis
# Not called here: the benchmark's tracer patches these names on this module.
from .roots import _cubic_labelled, cubic_roots, numeric_roots, quadratic_roots  # noqa: F401
from .unity import rotor_value

_INT_SNAP_LIMIT = 2.0 ** 52
_BLOCK = 4096  # consecutive k that verify evaluates at once
_CHAIN_KMAX = 100  # CPython's complex ** int runs its squaring chain up to this k


def _powers(roots, ks) -> list:
    """r ** k over paired roots and exponents (each re-iterable or endless);
    a power past float range, 0 to a negative k included, is an infinity,
    which `_finite` then refuses."""
    try:
        return list(map(pow, roots, ks))
    except (OverflowError, ZeroDivisionError):
        powers = []
        for r, k in zip(roots, ks):
            try:
                powers.append(r ** k)
            except (OverflowError, ZeroDivisionError):
                powers.append(cmath.inf)
        return powers


def _chain_powers(r: complex, n: int) -> list:
    """r ** k for k < n <= _CHAIN_KMAX + 1, one multiply each and no pow.

    For k <= 100, CPython's `complex ** int` (`c_powu`) starts from
    complex(1.0, 0.0) and multiplies in r^(2^j), squared from r, for each set
    bit j of k in ascending order, so its last product for k is
    r ** (k - 2^top) times r^(2^top): the same bits as `r ** k`.  Where pow
    raises OverflowError the entry is that product, with an infinite part,
    not `_powers`' infinity; w times it is inf or nan for every finite w, 0
    included, so `_finite` still refuses the power sum at that k."""
    row = [complex(1.0, 0.0)]
    p = r  # r^(2^j), squared as c_powu squares it
    while len(row) < n:
        row.extend(map(mul, row[:n - len(row)], repeat(p)))
        p *= p
    return row


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
    A table that starts at k = 0 takes a complex root's entries up to
    k = 100 from `_chain_powers`, where pow would run a binary powering loop
    per entry; later entries, float roots and later tables call pow.
    """

    __slots__ = ("ks", "_rows")

    def __init__(self, kmax: int, first: int = 0):
        self.ks = range(first, kmax + 1)
        self._rows = {}

    def row(self, r) -> list:
        key = repr(r)
        row = self._rows.get(key)
        if row is None:
            ks = self.ks
            if ks and ks.start == 0 and type(r) is complex:
                row = _chain_powers(r, min(len(ks), _CHAIN_KMAX + 1))
                row += _powers(repeat(r), ks[len(row):])
            else:
                row = _powers(repeat(r), ks)
            self._rows[key] = row
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
        weights = tuple(sum(map(mul, coefficients, col)) for col in zip(*_M_VALUES[order]))
        object.__setattr__(self, "root_weights", weights)

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


# The inverse of _M_VALUES[4] transposed, exactly: Gaussian integers over 4
_INVERSE_4 = tuple(tuple(v / 4 for v in row) for row in (
    (1, 1, 1, 1), (1, -1 - 2j, -1 + 2j, 1), (1, 1, -1 - 2j, -1 + 2j), (1, -1 + 2j, 1, -1 - 2j)))


def _guard_distinct(separation: float, rec: Recurrence):
    if rec.order >= 2 and separation <= 1e-7 * (1.0 + max(abs(c) for c in rec.coeffs)):
        raise DegenerateRoots(f"characteristic roots separated by only {separation:.3g}")


def _kept(slot: str):
    """fn(rec), built on rec's first call and kept in rec's `slot`; a refusal
    is not kept.  Threads racing on one rec may each build an equal form."""
    def keep(fn):
        @wraps(fn)
        def kept(rec):
            if getattr(rec, slot, None) is None:
                object.__setattr__(rec, slot, fn(rec))
            return getattr(rec, slot)
        return kept
    return keep


def _vandermonde(nodes, values) -> tuple:
    """The weights w with sum_j w_j * nodes[j]^i = values[i] for i < len(nodes),
    in the order of nodes: Bjorck and Pereyra's O(n^2) solve (Golub and Van
    Loan, Matrix Computations, Algorithm 4.6.2) over the nodes taken in
    ascending modulus.  Two equal nodes raise SingularSystem."""
    order = sorted(range(len(nodes)), key=lambda j: abs(nodes[j]))
    x, b = [nodes[j] for j in order], [complex(v) for v in values]
    n = len(x) - 1
    for k in range(n):
        for i in range(n, k, -1):
            b[i] -= x[k] * b[i - 1]
    for k in reversed(range(n)):
        for i in range(k + 1, n + 1):
            if x[i] == x[i - k - 1]:
                raise SingularSystem("singular Vandermonde system: two nodes are equal")
            b[i] /= x[i] - x[i - k - 1]
        for i in range(k, n):
            b[i] -= b[i + 1]
    return tuple(w for _, w in sorted(zip(order, b)))  # back in the caller's order


@_kept("weights_form")
def solve_weights(rec: Recurrence) -> BinetForm:
    """Solve x_k = sum(w_j r_j^k) + w_const from the first n+1 terms.

    Repeated roots are rejected first; a root at 1 is rejected next because
    it equals the constant weight's node 1.
    """
    rs = root_analysis(rec.coeffs).rootset
    _guard_distinct(rs.min_separation, rec)
    if any(abs(r - 1.0) <= 1e-9 for r in rs.roots):
        raise SingularSystem("a characteristic root at 1 collides with the constant column")
    xs = iterate(rec, rec.order + 1)
    return BinetForm(rs, _vandermonde(rs.roots + (1,), as_floats(xs)), rec)


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


@_kept("chain_form")
def _chain_form(rec: Recurrence) -> MForm:
    """rec's chain form, coefficients M over the chain rows of its order 2-4.
    Orders 2 and 3 take the paper's seed coefficients and refuse a repeated
    root exactly.  Order 2: M = (x0/2, (2 x1 - c1 x0)/(2 sigma1)).
    Order 3: M = (x0/3, -N2/(3D), N1/(3D)) with
    N1 = 9 s1 x2 - 3(2 c2 s1 + s2^2) x1 - ((c2^2 + 6 c1) s1 - c2 s2^2) x0
    and N2 the same with s1 and s2 exchanged.  Order 4, which the paper
    leaves open, maps the Vandermonde weights W of the seeds on the labelled
    roots to M by `_INVERSE_4`, behind the separation guard.
    """
    n = rec.order
    a = root_analysis(rec.coeffs)
    roots, sigmas, d = a.labelled, a.sigmas, a.divisor
    if n == 4:
        _guard_distinct(a.rootset.min_separation, rec)
        w = _vandermonde(roots, as_floats(rec.seeds))
        return MForm(n, tuple(sum(map(mul, row, w)) for row in _INVERSE_4), roots)
    _refuse_zero(a)
    if n == 2:
        x0, x1 = as_floats(rec.seeds)
        return MForm(n, (complex(x0) / 2.0, (2.0 * x1 - rec.coeffs[1] * x0) / (2.0 * d)), roots)
    _, c1, c2 = rec.coeffs
    x0, x1, x2 = as_floats(rec.seeds)

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
    if rec.order != 2:
        raise ArityMismatch("binet2 needs an order-2 recurrence")
    return _chain_form(rec).evaluate(k)


def binet3(rec: Recurrence, k: int) -> float:
    """Order-3 seed-coefficient closed form built on the resolvents.

    With D = sigma1^3 - sigma2^3, the rotor-weighted power chains
    P_k = r1^k + w r2^k + w^2 r3^k and Q_k = r1^k + w^2 r2^k + w r3^k
    (w the primitive cube root) and N1, N2 as in `_chain_form`,
    x_k = (N1/3)(Q_k/D) - (N2/3)(P_k/D) + (x0/3)(r1^k + r2^k + r3^k).
    """
    if rec.order != 3:
        raise ArityMismatch("binet3 needs an order-3 recurrence")
    return _chain_form(rec).evaluate(k)


def m_form(rec: Recurrence) -> MForm:
    """Rotor-expansion coefficients for orders 2-4: `_chain_form`, the form
    binet2 and binet3 evaluate at orders 2 and 3, returned only when the
    roots pass the separation guard."""
    if rec.order not in CHAIN_ROWS:
        raise UnsupportedDegree(f"rotor expansion covers orders 2-4, not {rec.order}")
    form = _chain_form(rec)
    _guard_distinct(root_analysis(rec.coeffs).rootset.min_separation, rec)
    return form


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
        forms[f"binet{rec.order}"] = _chain_form(rec)
    if rec.order in (2, 3, 4):
        forms["m_form"] = m_form(rec)

    # each distinct form is checked once: at orders 2 and 3, m_form is binetN's form
    checks = {id(form): form for form in forms.values()}
    worst = dict.fromkeys(checks, ())  # each form's running max, carried between blocks
    held = {}  # each form's first error, raised once every exact term converts
    source = exact_terms(rec)
    for lo in range(0, kmax + 1, _BLOCK):
        hi = min(lo + _BLOCK, kmax + 1)
        exact = as_floats(islice(source, hi - lo))
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
