"""Checks of the benchmark's oracle against hand-written values.

usage: python3 -m pytest perfbench/test_oracle.py -q
"""
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import exprs  # noqa: E402
import oracle  # noqa: E402


def exact_term(coeffs, seeds, k):
    return oracle.term_and_scale(coeffs, seeds, k)[0]


def test_fibonacci_100():
    assert exact_term((1, 1), (0, 1), 100) == 354224848179261915075


def test_lucas_100():
    assert exact_term((1, 1), (2, 1), 100) == 792070839848372253127


def test_tribonacci():
    # OEIS A000073, from a(0) = 0
    assert exact_term((1, 1, 1), (0, 0, 1), 30) == 15902591
    assert exact_term((1, 1, 1), (0, 0, 1), 37) == 1132436852


def test_pell_and_first_terms():
    assert oracle.exact_terms((1, 2), (0, 1), 11) == [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378]
    assert exact_term((1, 2), (0, 1), 10) == 2378


def test_integer_valued_floats_stay_integers():
    assert exact_term((1.0, 1.0), (0.0, 1.0), 12) == 144
    assert isinstance(exact_term((1.0, 1.0), (0.0, 1.0), 12), int)


def test_fractional_recurrence():
    # x_{k+2} = x_{k+1}/2 + x_k/2 from (0, 1): 0, 1, 1/2, 3/4, 5/8
    assert oracle.exact_terms((0.5, 0.5), (0, 1), 5) == [0, 1, Fraction(1, 2), Fraction(3, 4), Fraction(5, 8)]
    assert exact_term((0.5, 0.5), (0, 1), 4) == Fraction(5, 8)
    assert exact_term((0.25, -1.5, 2.75), (1, 0.5, -2), 9) == \
        oracle.exact_terms((0.25, -1.5, 2.75), (1, 0.5, -2), 10)[-1]


def test_scale_is_the_power_norm():
    # M^10 = [[F9, F10], [F10, F11]] = [[34, 55], [55, 89]]
    assert oracle.term_and_scale((1, 1), (0, 1), 10) == (55, 144)
    # x_{k+1} = x_k / 2 from 8: M^3 = [[1/8]], scale 1/8 * 8
    assert oracle.term_and_scale((0.5,), (8,), 3) == (1, 1)


def test_distinct_roots():
    assert oracle.distinct_roots((1, 1))                # golden ratio and its conjugate
    assert oracle.distinct_roots((1, 1, 1))             # Tribonacci
    assert oracle.distinct_roots((0.25, -1.5))          # x^2 = -1.5x + 0.25
    assert not oracle.distinct_roots((-1, 2))           # (x-1)^2
    assert not oracle.distinct_roots((1, -2, 0, 2))     # (x-1)^3 (x+1)
    assert not oracle.distinct_roots((0, 0, 1))         # x^2 (x-1)


def test_horizon():
    # ||M^k||_inf for Fibonacci is F(k+1) + F(k): 144 at k=10, 233 at k=11
    assert oracle.horizon((1, 1), 144, 1000) == 10
    assert oracle.horizon((1, 1), 143, 1000) == 9
    assert oracle.horizon((1, 1), 144, 5) == 5
    # x^4 = -1: M is a signed permutation, so its powers never grow
    assert oracle.horizon((-1, 0, 0, 0), 1, 1000) == 1000


def test_close_to_exact_handles_huge_terms():
    exact, scale = oracle.term_and_scale((1, 1), (0, 1), 2000)  # ~4e417
    assert not oracle.close_to_exact(1e300, exact, scale)
    assert not oracle.close_to_exact(float("inf"), exact, scale)
    assert oracle.close_to_exact(55.00000000000001, 55, 144)
    assert not oracle.close_to_exact(56.0, 55, 144)
    assert not oracle.close_to_exact(55 + 1e-3j, 55, 144)


def test_horner_and_roots():
    assert oracle.poly_value((1, 1), 2) == 1
    phi = (1 + math.sqrt(5)) / 2
    psi = (1 - math.sqrt(5)) / 2
    assert abs(oracle.poly_value((1, 1), phi)) < 1e-12
    assert oracle.roots_problems((1, 1), [phi, psi]) == []
    assert oracle.roots_problems((1, 1), [phi, phi])  # fails Vieta
    assert oracle.roots_problems((1, 1), [phi])


def test_rotor_products_are_turn_sums():
    assert oracle.rotor_product(Fraction(3, 4), Fraction(1, 2)) == Fraction(1, 4)
    assert oracle.turn(-1, 3) == Fraction(2, 3)
    assert oracle.turn(3, -8) == Fraction(5, 8)
    assert oracle.turn_value(Fraction(1, 4)) == 1j


def test_r4_table():
    # R4 in the reference order +1, ~1, _1, =1
    turns = [Fraction(0), Fraction(3, 4), Fraction(1, 4), Fraction(1, 2)]
    products, axioms = oracle.table_facts(turns)
    assert products == [[0, 1, 2, 3], [1, 3, 0, 2], [2, 0, 3, 1], [3, 2, 1, 0]]
    assert axioms == {"closure": True, "associativity": True, "identity": True, "inverses": True}
    assert [oracle.element_turn(n) for n in ("+1", "~1", "_1", "=1")] == turns


def test_c3_is_not_closed():
    products, axioms = oracle.table_facts([Fraction(1, 6), Fraction(1, 2), Fraction(5, 6)])
    assert products[0][0] is None
    assert axioms["closure"] is False and axioms["identity"] is False


def test_table_labels():
    assert oracle.element_turn("/I") == Fraction(1, 2)
    assert oracle.element_turn("~I") == Fraction(11, 12)
    assert oracle.element_turn("_J") == Fraction(3, 8)
    assert oracle.element_turn("\\1") == Fraction(2, 3)
    assert oracle.element_turn("rot(3,7)") == Fraction(3, 7)


def test_expression_values():
    two_slash_three = ("chain", (("+", ("num", 2.0)), ("/", ("num", 3.0))))
    assert exprs.format_tree(two_slash_three) == "2 / 3"
    value = oracle.expr_value(two_slash_three)
    assert abs(value - complex(0.5, 3 * math.sqrt(3) / 2)) < 1e-12
    cancel = ("chain", (("+", ("num", 1.0)), ("/", ("num", 1.0)), ("\\", ("num", 1.0))))
    assert abs(oracle.expr_value(cancel)) < 1e-15
    assert abs(oracle.expr_value(("pow", ("const", "i"), 2)) + 1) < 1e-15
    assert oracle.expr_refused(("pow", ("num", 0.0), -1))
    assert not oracle.expr_refused(("pow", ("num", 0.0), 2))


def test_formatting():
    assert exprs.format_tree(("pow", ("rot", -3, 5), -2)) == "rot(-3,5)^-2"
    mul = ("mul", ("chain", (("-", ("num", 1.0)),)), ("mul", ("const", "I"), ("num", 2.5)))
    assert exprs.format_tree(mul) == "(-1)*(I*2.5)"


def test_generated_lengths():
    rng = random.Random(7)
    for target in (10, 80):
        _, text = exprs.random_expression(rng, target)
        assert len(text) >= target
