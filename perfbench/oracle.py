"""Reference answers the benchmark checks rotorcalc against.

Standard library only, and nothing here imports rotorcalc: exact terms come
from companion-matrix powers on Python ints (a recurrence with fractional
coefficients is first scaled to an integer one), polynomial residuals from
Horner's rule, rotor products from turn addition mod 1, and expression
values from the benchmark's own trees.
"""
from __future__ import annotations

import math
from fractions import Fraction

# --- linear recurrences -------------------------------------------------------


def exact_scalars(values):
    """Python ints when every value is integral (ints or integer-valued
    floats), otherwise exact Fractions of the given floats."""
    if all(isinstance(v, int) or float(v).is_integer() for v in values):
        return [int(v) for v in values]
    return [Fraction(v) for v in values]


def _companion(coeffs):
    """State matrix M with (x_{k+1}..x_{k+n}) = M (x_k..x_{k+n-1})."""
    n = len(coeffs)
    zero, one = coeffs[0] * 0, coeffs[0] * 0 + 1
    rows = [[one if j == i + 1 else zero for j in range(n)] for i in range(n - 1)]
    rows.append(list(coeffs))
    return rows


def _matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _matpow(m, k):
    n = len(m)
    zero, one = m[0][0] * 0, m[0][0] * 0 + 1
    result = [[one if i == j else zero for j in range(n)] for i in range(n)]
    while k:
        if k & 1:
            result = _matmul(result, m)
        k >>= 1
        if k:
            m = _matmul(m, m)
    return result


def companion_power(coeffs, k):
    """(P, d): d the common denominator of the coefficients and P = M'^k,
    where M' = d S M S^-1 with S = diag(d^i) is an integer matrix, so the
    power is taken on Python ints.  (M^k)_ij = P_ij d^(j-i) / d^k."""
    cs = [Fraction(c) for c in coeffs]
    n = len(cs)
    d = math.lcm(*(c.denominator for c in cs))
    return _matpow(_companion([int(c * d ** (n - j)) for j, c in enumerate(cs)]), k), d


def term_and_scale(coeffs, seeds, k, power=None):
    """Exact x_k and the norm ||M^k||_inf * max(1, max|x_i|) that bounds it.

    The norm is the scale a floating-point closed form carries at k: its
    forward error is a small multiple of eps times this, however much the
    terms cancel.  `power` is companion_power(coeffs, k), when already known.
    """
    p, d = power or companion_power(coeffs, k)
    n = len(p)
    xs = [Fraction(x) for x in seeds]
    e = math.lcm(*(x.denominator for x in xs))
    term = Fraction(sum(a * int(x * e) * d ** j for j, (a, x) in enumerate(zip(p[0], xs))),
                    d ** k * e)
    norm = max(sum(abs(a) * d ** (j - i + n - 1) for j, a in enumerate(row))
               for i, row in enumerate(p))
    scale = Fraction(norm, d ** (k + n - 1)) * max(1, max(abs(x) for x in xs))
    return (int(term) if term.denominator == 1 else term), scale


def exact_terms(coeffs, seeds, count):
    """x_0..x_{count-1} by applying the companion matrix step by step."""
    values = exact_scalars(list(coeffs) + list(seeds))
    n = len(coeffs)
    cs, state = values[:n], values[n:]
    out = []
    while len(out) < count:
        out.append(state[0])
        state = state[1:] + [sum(c * x for c, x in zip(cs, state))]
    return out


def close_to_exact(got, exact, scale, rel=1e-6) -> bool:
    """|got - exact| <= rel * max(1, scale), compared in exact arithmetic so
    huge exact terms never overflow a float. `got` may be complex."""
    got = complex(got)
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return False
    try:
        bound = rel * max(1.0, float(scale))
        # float(exact) is within a relative 1e-16 of exact, far inside rel
        return abs(got.real - float(exact)) <= bound and abs(got.imag) <= bound
    except OverflowError:
        pass
    bound = Fraction(rel) * max(1, scale)
    return abs(Fraction(got.real) - exact) <= bound and abs(Fraction(got.imag)) <= bound


# --- characteristic polynomials ------------------------------------------------


def poly_value(coeffs, z):
    """p(z) = z^n - c_{n-1} z^(n-1) - ... - c_0 by Horner's rule."""
    acc = complex(1)
    for c in reversed(coeffs):
        acc = acc * z - c
    return acc


def poly_scale(coeffs, z):
    """|z|^n + sum |c_j| |z|^j: the size of the terms whose sum p(z) is."""
    r = abs(z)
    return r ** len(coeffs) + sum(abs(c) * r ** j for j, c in enumerate(coeffs))


def _poly_rem(a, b):
    """Remainder of a by b, both coefficient lists lowest degree first."""
    a = list(a)
    while len(a) >= len(b) and any(a):
        q = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= q * c
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def distinct_roots(coeffs) -> bool:
    """True when p has no repeated root: gcd(p, p') is a constant, found by
    Euclid's algorithm in exact Fractions."""
    p = [-Fraction(c) for c in coeffs] + [Fraction(1)]
    a, b = p, [j * c for j, c in enumerate(p)][1:]
    while b:
        a, b = b, _poly_rem(a, b)
    return len(a) == 1


def horizon(coeffs, cap, kmax) -> int:
    """The largest k <= kmax with ||M^j||_inf <= cap for every j <= k.

    Row i of M^j is e_0 M^(j+i), so the norms come from one row vector
    stepped by v -> v M, in floats (only the comparison with cap matters).
    """
    n = len(coeffs)
    cs = [float(c) for c in coeffs]
    v = [1.0] + [0.0] * (n - 1)
    rows = []
    for t in range(kmax + n):
        rows.append(sum(abs(x) for x in v))
        if t >= n - 1 and max(rows[t - n + 1:]) > cap:
            return t - n
        last = v[-1]
        v = [last * cs[0]] + [v[j - 1] + last * cs[j] for j in range(1, n)]
    return kmax


def roots_problems(coeffs, roots, rel=1e-8):
    """Reasons the given roots are not the roots of p; empty when they are.

    Each root must nearly zero p relative to the size of p's terms, and the
    sum and product must match Vieta's relations, which rules out a root
    reported twice in place of another.
    """
    n = len(coeffs)
    problems = []
    if len(roots) != n:
        return [f"{len(roots)} roots for degree {n}"]
    for z in roots:
        if abs(poly_value(coeffs, z)) > rel * poly_scale(coeffs, z):
            problems.append(f"root {z!r} has residual {abs(poly_value(coeffs, z)):.3g}")
    size = sum(abs(z) for z in roots) + 1.0
    if abs(sum(roots) - coeffs[-1]) > rel * size:
        problems.append("roots do not sum to c_{n-1}")
    prod = complex(1)
    for z in roots:
        prod *= z
    if abs(prod - (-1) ** (n + 1) * coeffs[0]) > rel * (abs(prod) + abs(coeffs[0]) + 1.0):
        problems.append("roots do not multiply to (-1)^(n+1) c_0")
    return problems


# --- rotors ------------------------------------------------------------------------

OP_TURNS = {
    "+": Fraction(0), "-": Fraction(1, 2), "=": Fraction(1, 2),
    "/": Fraction(1, 3), "\\": Fraction(2, 3),
    "_": Fraction(1, 4), "~": Fraction(3, 4),
}
CONST_TURNS = {"I": Fraction(1, 6), "J": Fraction(1, 8), "i": Fraction(1, 4)}
_NAME_BASES = {"1": Fraction(0), "I": Fraction(1, 6), "J": Fraction(1, 8)}


def turn(num: int, den: int) -> Fraction:
    return Fraction(num, den) % 1


def rotor_product(a: Fraction, b: Fraction) -> Fraction:
    """Turns add mod 1."""
    return (a + b) % 1


def turn_value(t: Fraction) -> complex:
    """exp(i 2 pi t), exact at quarter turns."""
    exact = {Fraction(0): 1 + 0j, Fraction(1, 4): 1j, Fraction(1, 2): -1 + 0j, Fraction(3, 4): -1j}
    if t in exact:
        return exact[t]
    angle = 2.0 * math.pi * t.numerator / t.denominator
    return complex(math.cos(angle), math.sin(angle))


def element_turn(name: str) -> Fraction:
    """Turn of a table label: an operator rotor times 1, I or J (e.g. "/I"),
    or a literal rot(num,den)."""
    if name.startswith("rot(") and name.endswith(")"):
        num, den = name[4:-1].split(",")
        return turn(int(num), int(den))
    return (OP_TURNS[name[0]] + _NAME_BASES[name[1:]]) % 1


def table_facts(turns):
    """Products (as indices or None) and the four group axioms for a list of
    distinct turns."""
    index = {t: i for i, t in enumerate(turns)}
    products = [[index.get(rotor_product(a, b)) for b in turns] for a in turns]
    closure = all(p is not None for row in products for p in row)
    identity = Fraction(0) in index
    inverses = identity and all((-t) % 1 in index for t in turns)
    return products, {"closure": closure, "associativity": True,
                      "identity": identity, "inverses": inverses}


# Known wrong cells in the printed reference tables that diff_reference
# compares against; the others were transcribed correctly.
REFERENCE_MISMATCHES = {"union3": 0, "union8": 5}


# --- expression trees ------------------------------------------------------------
#
# ("num", x) | ("const", name) | ("rot", num, den) | ("mul", a, b)
# | ("pow", base, exponent) | ("chain", ((op, item), ...))


def expr_value(tree) -> complex:
    kind = tree[0]
    if kind == "num":
        return complex(tree[1])
    if kind == "const":
        return turn_value(CONST_TURNS[tree[1]])
    if kind == "rot":
        return turn_value(turn(tree[1], tree[2]))
    if kind == "mul":
        return expr_value(tree[1]) * expr_value(tree[2])
    if kind == "pow":
        return expr_value(tree[1]) ** tree[2]
    return sum((turn_value(OP_TURNS[op]) * expr_value(item) for op, item in tree[1]), 0j)


def expr_magnitude(tree) -> float:
    """Bound on the size of the intermediate values (sum of moduli), the
    scale of the rounding error a floating evaluation may make."""
    kind = tree[0]
    if kind == "num":
        return abs(tree[1])
    if kind in ("const", "rot"):
        return 1.0
    if kind == "mul":
        return expr_magnitude(tree[1]) * expr_magnitude(tree[2])
    if kind == "pow":
        if tree[2] < 0:
            return abs(expr_value(tree[1])) ** tree[2]
        return expr_magnitude(tree[1]) ** tree[2]
    return sum(expr_magnitude(item) for _, item in tree[1])


def expr_refused(tree) -> bool:
    """True when evaluation must fail: a zero base raised to a negative power."""
    kind = tree[0]
    if kind == "pow":
        return (tree[2] < 0 and expr_value(tree[1]) == 0) or expr_refused(tree[1])
    if kind == "mul":
        return expr_refused(tree[1]) or expr_refused(tree[2])
    if kind == "chain":
        return any(expr_refused(item) for _, item in tree[1])
    return False
