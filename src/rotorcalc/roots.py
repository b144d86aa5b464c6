"""Characteristic-root solving.

Degrees 2 and 3 get closed forms built on resolvent sums (weighted by the
cube-root and fourth-root rotors); higher degrees fall back to simultaneous
Durand-Kerner iteration.  The same rotor weights drive the permutation-table
machinery: extracting resolvent values from a root tuple and reconstructing
the roots back from those values.

Every closed form of a recurrence starts from the same roots, so one
`root_analysis` of the coefficients holds them; the closed root solvers and
the form builders in `binet` read it.  It, `numeric_roots` and those builders
are wrapped in `_memo`: each remembers its results for the last `_MEMO_SIZE`
argument tuples, keyed by `repr`, and a repeated call returns the stored
record instead of solving again.
"""
from __future__ import annotations

import cmath
import itertools
import math
from collections import OrderedDict
from functools import reduce, wraps
from operator import add, mul

from .errors import (
    ArityMismatch,
    InconsistentSigmas,
    NoConvergence,
    TermOverflow,
    UnsupportedDegree,
)
from .record import Record
from .recurrence import CharPoly, as_float
from .unity import rotor_pow, rotor_value, signature_rows

# Argument tuples each memo remembers.  The closed forms of one recurrence
# reuse a handful of entries (its roots, weights, seed and M forms), so this
# keeps a few recent recurrences; 64 answered no faster and held 4x the memory.
_MEMO_SIZE = 16
_MISS = object()


def _memo(fn):
    """fn, remembering its results for the last _MEMO_SIZE argument tuples.

    The key is repr of the arguments, which tells 0.0 from -0.0 and 1 from
    1.0 where == does not, so a hit returns exactly the bits a fresh call
    would.  Only results are stored: an exception is raised again on every
    call.  The first stored entry is evicted first.  Results are shared, so
    they must be immutable (records and tuples).  A race between threads may
    lose an entry but never raises.  `cache_clear()` forgets every entry.
    """
    cache = OrderedDict()

    @wraps(fn)
    def remembered(*args, **kwargs):
        try:
            key = (repr(args), repr(kwargs)) if kwargs else repr(args)
        except ValueError:  # an int too long for str(); such a call is not kept
            return fn(*args, **kwargs)
        result = cache.get(key, _MISS)
        if result is _MISS:
            result = fn(*args, **kwargs)
            while len(cache) >= _MEMO_SIZE:
                try:
                    cache.popitem(last=False)
                except KeyError:  # another thread emptied the cache first
                    break
            cache[key] = result
        return result

    remembered.cache_clear = cache.clear
    return remembered

# The chain rows of each degree, one operator symbol per root; row 0 is the
# symmetric sum.  They turn roots into resolvents, sigma_j = sum_m
# value(row_j[m]) r_m, here and into the closed forms' chains in `binet`.
CHAIN_ROWS = {
    2: signature_rows("++ +-"),
    3: signature_rows(r"+++ +/\ +\/"),
    4: signature_rows("++++ +_~= +=_~ +~=_"),
}
# The rows of degrees 2 and 3 are orthogonal (1 / 1 \ 1 = 0), so their conjugates
# invert them: r_m = (c_top + sum_j conj(row_j[m]) sigma_j)/n.  One tuple per root.
_INVERSE_ROWS = {
    n: tuple(zip(*[[rotor_value(rotor_pow(r, -1)) for r in row] for row in CHAIN_ROWS[n][1:]]))
    for n in (2, 3)
}


def _sort_roots(roots):
    """Descending modulus, then real part, then imaginary part."""
    return tuple(sorted(roots, key=lambda z: (-abs(z), -z.real, -z.imag)))


class RootSet(Record):
    """Roots sorted by the modulus/real/imag convention, with |p(r)| per root
    in the same order as residuals; method is "closed2" | "closed3" | "numeric"."""

    __slots__ = _fields = ("roots", "residuals", "min_separation", "method")


class RootAnalysis(Record):
    """The sorted RootSet, the roots labelled by their resolvents (sigmas),
    and the divisor of the signed chains: sigma1 at degree 2, D = sigma1^3 -
    sigma2^3 at degree 3.  Other degrees keep the sorted roots as labelled,
    with no sigmas and no divisor."""

    __slots__ = _fields = ("rootset", "labelled", "sigmas", "divisor")


class ResolventSet(Record):
    __slots__ = _fields = ("degree", "sigmas", "A", "B")


class PermutationTable(Record):
    """Rows are cyclic arrangements of root indices (tuples of them); the
    signature gives the Rotor weight applied at each column position."""

    __slots__ = _fields = ("signature", "rows")


def _root_set(raw_roots, poly: CharPoly, method: str) -> RootSet:
    rts = _sort_roots(complex(r) for r in raw_roots)
    residuals = tuple(abs(poly.value(r)) for r in rts)
    separation = min((abs(a - b) for a, b in itertools.combinations(rts, 2)), default=math.inf)
    return RootSet(rts, residuals, separation, method)


def _from_resolvents(c_top, sigmas) -> tuple:
    """The degree-2 or degree-3 roots labelled by their resolvents, summed as
    c_top + v1 sigma1 + v2 sigma2 over the conjugate chain rows."""
    n = len(sigmas) + 1
    return tuple(reduce(add, map(mul, inverse, sigmas), c_top) / n for inverse in _INVERSE_ROWS[n])


def _quadratic_labelled(c0: float, c1: float):
    """Roots in the labelling tied to sigma1, plus (sigma1,)."""
    try:
        disc = c1 * c1 + 4.0 * c0
    except OverflowError:  # an integer coefficient too large for a float
        disc = math.inf
    if not math.isfinite(disc):
        raise TermOverflow("the quadratic discriminant is beyond float range")
    sigma1 = cmath.sqrt(complex(disc))
    return _from_resolvents(c1, (sigma1,)), (sigma1,)


def quadratic_roots(c0: float, c1: float):
    """Roots of x^2 = c1 x + c0 and the resolvent difference sigma1.

    sigma1 is the principal square root of c1^2 + 4 c0; the roots are
    (c1 +/- sigma1)/2.  Returns (RootSet, sigma1).
    """
    a = root_analysis((c0, c1))
    return a.rootset, a.sigmas[0]


def cubic_resolvents(c0: float, c1: float, c2: float) -> ResolventSet:
    """Resolvent cube roots (sigma1, sigma2) for x^3 = c2 x^2 + c1 x + c0.

    sigma1^3 and sigma2^3 are the two roots y1, y2 of y^2 - A y + B^3 with
    A = 2 c2^3 + 9 c1 c2 + 27 c0 and B = c2^2 + 3 c1.  sigma1 is the principal
    cube root of y1 = (A + sqrt(A^2 - 4 B^3))/2 and sigma2 = B / sigma1, so
    sigma1 * sigma2 = B by construction.  When |y1| < |y2| that sum cancels
    (|A| >> |B|^(3/2)); y1 = B^3 / y2 (Vieta) instead, built as |B| / |y2|^(1/3).
    sigma1 = 0 forces B = 0; sigma2 is then the principal cube root of y2.
    """
    try:
        A = 2.0 * c2 ** 3 + 9.0 * c1 * c2 + 27.0 * c0
        B = c2 * c2 + 3.0 * c1
        disc = A * A - 4.0 * B ** 3
    except OverflowError:  # float ** and int-to-float conversion raise; * gives inf
        disc = math.inf
    if not math.isfinite(disc):
        raise TermOverflow("the cubic resolvent discriminant is beyond float range")
    sq = cmath.sqrt(complex(disc))
    y1, y2 = (A + sq) / 2.0, (A - sq) / 2.0
    if abs(y1) < abs(y2):  # disc > 0, so y1 is real: arg pi/3 when negative
        arg = math.pi / 3 if (B < 0) != (y2.real < 0) else 0.0
        sigma1 = cmath.rect(abs(B) / abs(y2) ** (1.0 / 3.0), arg)  # B^3 / y2 may underflow
    else:
        sigma1 = y1 ** (1.0 / 3.0)
    return ResolventSet(3, (sigma1, B / sigma1 if sigma1 else y2 ** (1.0 / 3.0)), A, B)


def _cubic_labelled(c0: float, c1: float, c2: float):
    """Roots in the labelling tied to (sigma1, sigma2), plus those sigmas."""
    sigmas = cubic_resolvents(c0, c1, c2).sigmas
    return _from_resolvents(c2, sigmas), sigmas


def cubic_roots(c0: float, c1: float, c2: float) -> RootSet:
    """Closed-form roots of x^3 = c2 x^2 + c1 x + c0 via the resolvents."""
    return root_analysis((c0, c1, c2)).rootset


def _exact_discriminant(coeffs) -> int | None:
    """The divisor's square in integers, over the exact coefficient values c_j = n_j / d:
    (c1^2 + 4 c0) d^2 at degree 2, (A^2 - 4 B^3) d^6 at degree 3 (A, B as in
    `cubic_resolvents`); None when a coefficient has no exact ratio."""
    try:
        ratios = [c.as_integer_ratio() for c in coeffs]
    except AttributeError:  # the solvers refuse inf and nan before this
        return None
    d = math.lcm(*(q for _, q in ratios))
    n = [p * (d // q) for p, q in ratios]
    if len(n) == 2:
        return n[1] * n[1] + 4 * n[0] * d
    a = 2 * n[2] ** 3 + 9 * n[1] * n[2] * d + 27 * n[0] * d * d
    b = n[2] * n[2] + 3 * n[1] * d
    return a * a - 4 * b ** 3


@_memo
def root_analysis(coeffs: tuple) -> RootAnalysis:
    """The roots of x^n = c_{n-1} x^(n-1) + ... + c_0: closed2 or closed3 at
    degrees 2 and 3, `numeric_roots` at any other.  A zero discriminant of the exact
    value of every coefficient gives a divisor of exactly 0 (rounding may not)."""
    n = len(coeffs)
    if n not in (2, 3):
        rootset = numeric_roots(CharPoly(n, coeffs))
        return RootAnalysis(rootset, rootset.roots, (), None)
    labelled, sigmas = (_quadratic_labelled if n == 2 else _cubic_labelled)(*coeffs)
    divisor = sigmas[0] if n == 2 else sigmas[0] ** 3 - sigmas[1] ** 3
    if _exact_discriminant(coeffs) == 0:
        divisor = 0j
    rootset = _root_set(labelled, CharPoly(n, coeffs), f"closed{n}")
    return RootAnalysis(rootset, labelled, sigmas, divisor)


@_memo
def numeric_roots(p: CharPoly, tol: float = 1e-10) -> RootSet:
    """Simultaneous (Durand-Kerner) iteration for any degree >= 1.

    Starts on a circle of radius 1 + max|c_j| with an irrational angular
    offset so no guess sits on a symmetry axis.  Converged when the largest
    update in a sweep drops below tol; 1000 sweeps without that is failure.
    """
    n = p.degree
    if n < 1:
        raise UnsupportedDegree("degree must be at least 1")
    radius = 1.0 + max(abs(as_float(c)) for c in p.coeffs)
    offset = (math.sqrt(5.0) - 1.0) / 2.0  # radians
    zs = [radius * cmath.exp(1j * (2.0 * math.pi * k / n + offset)) for k in range(n)]
    for _ in range(1000):
        worst = 0.0
        for i in range(n):
            den = complex(1)
            for j in range(n):
                if j != i:
                    den *= zs[i] - zs[j]
            if den == 0:
                zs[i] += tol
                worst = math.inf
                continue
            delta = p.value(zs[i]) / den
            if not cmath.isfinite(delta):  # max() below would pass over a NaN
                raise TermOverflow("a Durand-Kerner update is beyond float range")
            zs[i] -= delta
            worst = max(worst, abs(delta))
        if worst < tol:
            return _root_set(zs, p, "numeric")
    raise NoConvergence(f"no convergence to {tol:g} within 1000 sweeps")


def vieta_residuals(roots: RootSet, p: CharPoly):
    """|e_k(roots) - expected| for each elementary symmetric polynomial.

    Expanding prod(x - r_i) against x^n - c_{n-1} x^(n-1) - ... - c_0 gives
    the expected value (-1)^(k+1) c_{n-k} for e_k.
    """
    n = p.degree
    if len(roots.roots) != n:
        raise ArityMismatch(f"{len(roots.roots)} roots for degree {n}")
    # expand prod(x - r_i); coeffs[k] multiplies x^(n-k)
    coeffs = [complex(1)]
    for r in roots.roots:
        nxt = [complex(0)] * (len(coeffs) + 1)
        for i, a in enumerate(coeffs):
            nxt[i] += a
            nxt[i + 1] -= a * r
        coeffs = nxt
    out = []
    for k in range(1, n + 1):
        e_k = (-1) ** k * coeffs[k]
        expected = (-1) ** (k + 1) * p.coeffs[n - k]
        out.append(abs(e_k - expected))
    return out


def permutation_tables(n: int):
    """Symmetric-sum table plus the signed resolvent tables for degree n.

    Every table's rows are the n cyclic rotations of an arrangement of the
    root indices; the signed signatures attach an n-th root of unity (or the
    fourth-root family for n=4) to each column.
    """
    if n not in (2, 3, 4):
        raise UnsupportedDegree(f"permutation tables cover degrees 2-4, not {n}")

    def rotations(arr):
        w = len(arr)
        return tuple(tuple(arr[(m - k) % w] for m in range(w)) for k in range(w))

    rows = CHAIN_ROWS[n]
    base = tuple(range(n))
    if n in (2, 3):
        return [PermutationTable(sig, rotations(base)) for sig in rows]
    return [PermutationTable(rows[0], rotations(base))] + [
        PermutationTable(rows[1], rotations((0,) + rest))
        for rest in itertools.permutations((1, 2, 3))
    ]


def sigma_from_roots(roots, table: PermutationTable):
    """Row-wise weighted sums: one value per row of the table."""
    roots = [complex(r) for r in roots]
    if len(roots) != len(table.signature):
        raise ArityMismatch(
            f"table expects {len(table.signature)} roots, got {len(roots)}"
        )
    weights = [rotor_value(r) for r in table.signature]
    return [sum(w * roots[idx] for w, idx in zip(weights, row)) for row in table.rows]


def _degree4_rows():
    """The 7x4 map from four roots to the symmetric sum and the first-row
    sigma of each signed degree-4 table."""
    rows = [(1.0 + 0j,) * 4]
    for table in permutation_tables(4)[1:]:
        row = [0j] * 4
        for r, idx in zip(table.signature, table.rows[0]):
            row[idx] = rotor_value(r)
        rows.append(tuple(row))
    return tuple(rows)


_ROWS4 = _degree4_rows()
# Every entry of _ROWS4 has modulus 1 and A^H A = 8I - J (J all ones), whose
# inverse is (I + J/4)/8, so the least-squares solution is the constant
# pseudo-inverse (I + J/4) A^H / 8 applied to the right-hand side.
_PINV4 = tuple(
    tuple(
        (row[i].conjugate() + sum(row).conjugate() / 4.0) / 8.0 for row in _ROWS4
    )
    for i in range(4)
)


def roots_from_sigma(c_top: float, sigmas, n: int):
    """Invert the resolvent sums back to the n roots.

    n=2 and n=3 use the exact reconstruction; n=4 solves the overdetermined
    7x4 system (symmetric sum plus the first row of each signed table) by
    least squares and rejects inconsistent inputs.
    """
    sigmas = [complex(s) for s in sigmas]
    if n in (2, 3):
        if len(sigmas) != n - 1:
            raise ArityMismatch(f"degree {n} takes exactly {('one sigma', 'two sigmas')[n - 2]}")
        return list(_from_resolvents(c_top, sigmas))
    if n == 4:
        if len(sigmas) != 6:
            raise ArityMismatch("degree 4 takes exactly six sigmas")
        rhs = [complex(c_top)] + sigmas
        sol = [sum(p * b for p, b in zip(prow, rhs)) for prow in _PINV4]
        residual = max(
            abs(sum(a * z for a, z in zip(row, sol)) - b) for row, b in zip(_ROWS4, rhs)
        )
        scale = 1.0 + max(abs(c_top), max(abs(s) for s in sigmas))
        if residual > 1e-8 * scale:
            raise InconsistentSigmas(
                f"sigma values are not consistent with any root tuple "
                f"(residual {residual:.3g})"
            )
        return sol
    raise UnsupportedDegree(f"reconstruction covers degrees 2-4, not {n}")
