"""Exact arithmetic on roots of unity ("rotors") and their group tables.

A rotor is a point on the unit circle stored as a reduced fraction of a
full turn, so products, powers, and group structure are computed exactly;
floating point enters only when a rotor is converted to a complex value
or a chain of rotated segments is summed.
"""
from __future__ import annotations

import math

from .errors import ArityMismatch, DuplicateElements, InvalidOrder, ZeroResultant
from .record import Record


class Rotor(Record):
    """exp(i 2*pi * num/den), kept canonical: den >= 1, 0 <= num < den, gcd = 1."""

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: int, den: int):
        if den == 0:
            raise InvalidOrder("rotor denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        num %= den
        g = math.gcd(num, den)
        super().__init__(num // g, den // g)

    @property
    def turn(self):
        """num/den as a `fractions.Fraction`."""
        from fractions import Fraction

        return Fraction(self.num, self.den)

    def __str__(self):
        return f"rot({self.num},{self.den})"


IDENTITY = Rotor(0, 1)
HALF = Rotor(1, 2)        # -1
THIRD = Rotor(1, 3)       # slash
TWO_THIRDS = Rotor(2, 3)  # aslash
QUARTER = Rotor(1, 4)     # +i
THREE_QUARTERS = Rotor(3, 4)  # -i
SIXTH = Rotor(1, 6)       # the I constant, exp(i*pi/3)
EIGHTH = Rotor(1, 8)      # the J constant, exp(i*pi/4)

# The pseudo-operator symbol table: the rotor each infix symbol applies to
# its right operand (`-` and `=` are both the half turn, kept lexically
# distinct), and the named constants.
OPSYM_ROTORS = {
    "+": IDENTITY, "-": HALF, "/": THIRD, "\\": TWO_THIRDS,
    "_": QUARTER, "~": THREE_QUARTERS, "=": HALF,
}
CONST_ROTORS = {"I": SIXTH, "J": EIGHTH, "i": QUARTER}


def rotor_value(r: Rotor) -> complex:
    """Complex value of a rotor. Quarter-turn multiples are exact."""
    if r.den == 1:
        return 1 + 0j
    if r.den == 2:
        return -1 + 0j
    if r.den == 4:
        return 1j if r.num == 1 else -1j
    try:
        angle = math.tau * r.num / r.den
    except OverflowError:  # den past float range: num/den, in [0, 1), rounded once
        angle = math.tau * (r.num / r.den)
    return complex(math.cos(angle), math.sin(angle))


def rotor_mul(a: Rotor, b: Rotor) -> Rotor:
    """Exact product: turns add mod 1."""
    return Rotor(a.num * b.den + b.num * a.den, a.den * b.den)


def rotor_pow(a: Rotor, k: int) -> Rotor:
    """Exact integer power; k may be negative."""
    return Rotor(a.num * k, a.den)


def label_rotor(label: str) -> Rotor:
    """The rotor a table label names: an operator symbol applied to 1, I or J.
    Labels are chain expressions, so "/I" names the value of `eval "/I"`."""
    op, operand = label[0], label[1:]
    return rotor_mul(OPSYM_ROTORS[op], IDENTITY if operand == "1" else CONST_ROTORS[operand])


def signature_rows(text: str) -> tuple[tuple[Rotor, ...], ...]:
    """Chain-row signatures from whitespace-separated operator strings, one
    rotor per symbol: "++ +-" gives ((IDENTITY, IDENTITY), (IDENTITY, HALF))."""
    return tuple(tuple(OPSYM_ROTORS[op] for op in ops) for ops in text.split())


def nth_roots(n: int) -> list[Rotor]:
    """Solutions of z^n = 1 as rotors, in power order."""
    if n < 1:
        raise InvalidOrder(f"root family needs order >= 1, got {n}")
    return [Rotor(k, n) for k in range(n)]


def negative_nth_roots(n: int) -> list[Rotor]:
    """Solutions of z^n = -1: exp(i(2k+1)pi/n) = rot(2k+1, 2n)."""
    if n < 1:
        raise InvalidOrder(f"root family needs order >= 1, got {n}")
    return [Rotor(2 * k + 1, 2 * n) for k in range(n)]


def roots_sum(n: int, negative: bool = False) -> complex:
    """Floating sum of a root family (zero for n >= 2)."""
    family = negative_nth_roots(n) if negative else nth_roots(n)
    return sum((rotor_value(r) for r in family), 0j)


class RotatedTerm(Record):
    """A segment of given length advanced in a rotor's direction.

    Negative lengths are folded into the rotor as a half turn, keeping the
    direction-plus-distance reading single-valued.
    """

    __slots__ = _fields = ("rotor", "magnitude")

    def __init__(self, rotor: Rotor, magnitude: float):
        if magnitude < 0:
            rotor, magnitude = rotor_mul(rotor, HALF), -magnitude
        super().__init__(rotor, magnitude)


def chain_resultant(terms: list[RotatedTerm]) -> complex:
    """Vector sum of rotated segments; empty chains sum to 0."""
    return sum((t.magnitude * rotor_value(t.rotor) for t in terms), 0j)


def pair_polar(a: float, eta1: float, b: float, eta2: float) -> tuple[float, float]:
    """Polar form of a*e^(i eta1) + b*e^(i eta2).

    The modulus comes from the law-of-cosines form
    sqrt(a^2 + b^2 + 2ab cos(eta1 - eta2)); the angle is the quadrant-aware
    argument of the complex sum, restricted to (-pi, pi].
    """
    modulus = math.sqrt(max(a * a + b * b + 2 * a * b * math.cos(eta1 - eta2), 0.0))
    if modulus < 1e-14:
        raise ZeroResultant("resultant length is zero; angle undefined")
    z = a * complex(math.cos(eta1), math.sin(eta1)) + b * complex(math.cos(eta2), math.sin(eta2))
    angle = math.atan2(z.imag, z.real)
    if angle <= -math.pi:
        angle = math.pi
    return modulus, angle


def cyclic_closure(generator: Rotor) -> list[Rotor]:
    """Powers of the generator until repetition, in power order."""
    cycle = [IDENTITY]
    g = generator
    while g != IDENTITY:
        cycle.append(g)
        g = rotor_mul(g, generator)
    return cycle


class AxiomReport(Record):
    __slots__ = _fields = ("closure", "associativity", "identity", "inverses")

    @property
    def all_pass(self) -> bool:
        return self.closure and self.associativity and self.identity and self.inverses


class GroupTable(Record):
    """Multiplication table over a fixed element order.

    products[i][j] is the index of elements[i]*elements[j] within elements,
    or None when the product leaves the set (closure failure is reported,
    not raised).
    """

    __slots__ = _fields = ("elements", "products", "axiom_report")

    def product_rotor(self, i: int, j: int) -> Rotor:
        return rotor_mul(self.elements[i], self.elements[j])


def multiplication_table(elements: list[Rotor]) -> GroupTable:
    """Build the table from exact rotor products and check the group axioms."""
    elems = tuple(elements)
    if len(set(elems)) != len(elems):
        raise DuplicateElements("table elements must be distinct")
    index = {e: i for i, e in enumerate(elems)}

    products = tuple(
        tuple(index.get(rotor_mul(a, b)) for b in elems) for a in elems
    )
    closure = all(p is not None for row in products for p in row)

    # Rotor products are turn additions, hence always associative; the
    # exhaustive check documents it rather than assuming it.
    associativity = all(
        rotor_mul(rotor_mul(a, b), c) == rotor_mul(a, rotor_mul(b, c))
        for a in elems for b in elems for c in elems
    )
    identity = any(
        all(rotor_mul(e, x) == x and rotor_mul(x, e) == x for x in elems)
        for e in elems
    )
    inverses = identity and all(
        any(rotor_mul(x, y) == IDENTITY for y in elems) for x in elems
    )
    return GroupTable(elems, products, AxiomReport(closure, associativity, identity, inverses))


# --- element families in the orders the reference tables print them ---

def _labels(text: str) -> tuple[Rotor, ...]:
    """The rotors of whitespace-separated labels."""
    return tuple(map(label_rotor, text.split()))


def _label_rows(text: str) -> tuple[tuple[Rotor, ...], ...]:
    """One row of rotors per line of labels."""
    return tuple(map(_labels, text.strip().splitlines()))


FAMILY_LABELS = {
    "R3": r"+1 /1 \1",
    "C3": r"+I /I \I",
    "R4": "+1 ~1 _1 =1",
    "C4": "+J _J =J ~J",
    "union3": r"+1 /1 \1 +I /I \I",
    "union8": "+1 ~1 _1 =1 +J ~J _J =J",
}
FAMILY_ORDERS = {name: _labels(text) for name, text in FAMILY_LABELS.items()}


def family_elements(name: str) -> list[Rotor]:
    """Named element families, ordered as the reference tables print them."""
    try:
        return list(FAMILY_ORDERS[name])
    except KeyError:
        raise InvalidOrder(f"unknown family {name!r}") from None


# Reference transcriptions of the printed multiplication tables, in the
# printed symbols.  The computed tables are authoritative; these exist to be
# diffed against.  The 8-element transcription is knowingly wrong in five
# cells (a sixth-turn symbol, +I, =I or ~I, printed where an eighth-turn
# product belongs); diff_reference pinpoints them.

REFERENCE_LABELS = {
    "R3": r"""
        +1 /1 \1
        /1 \1 +1
        \1 +1 /1
    """,
    "R4": """
        +1 ~1 _1 =1
        ~1 =1 +1 _1
        _1 +1 =1 ~1
        =1 _1 ~1 +1
    """,
    "union3": r"""
        +1 /1 \1 +I /I \I
        /1 \1 +1 /I \I +I
        \1 +1 /1 \I +I /I
        +I /I \I /1 \1 +1
        /I \I +I \1 +1 /1
        \I +I /I +1 /1 \1
    """,
    "union8": """
        +1 ~1 _1 =1 +J ~J _J =J
        ~1 =1 +1 _1 ~J =J +J _J
        _1 +1 =1 ~1 _J +I =I ~I
        =1 _1 ~1 +1 =J _J ~J +I
        +J ~J _J =J _1 +1 =1 ~1
        ~J =J +J _J +1 ~1 _1 =1
        _J +J =J ~I =1 _1 ~1 +1
        =J _J ~J +J ~1 =1 +1 _1
    """,
}
REFERENCE_TABLES = {name: _label_rows(text) for name, text in REFERENCE_LABELS.items()}


class Discrepancy(Record):
    """A table cell where the reference transcription disagrees with arithmetic."""

    __slots__ = _fields = ("row", "col", "printed", "computed")


def diff_reference(table: GroupTable, name: str) -> list[Discrepancy]:
    """Cells where the computed table differs from the reference transcription.

    The table must use the family order the reference was transcribed in
    (family_elements(name)).  A name with no reference is an InvalidOrder, a
    table of another size an ArityMismatch.
    """
    try:
        reference = REFERENCE_TABLES[name]
    except KeyError:
        raise InvalidOrder(f"no reference table for family {name!r}") from None
    if len(table.elements) != len(reference):
        raise ArityMismatch(
            f"the {name} reference has {len(reference)} elements, the table {len(table.elements)}"
        )
    out = []
    for i in range(len(table.elements)):
        for j in range(len(table.elements)):
            computed = table.product_rotor(i, j)
            if computed != reference[i][j]:
                out.append(Discrepancy(i, j, reference[i][j], computed))
    return out
