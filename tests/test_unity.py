import itertools
import math
import random
from fractions import Fraction

import pytest

from rotorcalc.errors import ArityMismatch, DuplicateElements, InvalidOrder, ZeroResultant
from rotorcalc.unity import (
    EIGHTH,
    FAMILY_ORDERS,
    HALF,
    IDENTITY,
    QUARTER,
    SIXTH,
    THIRD,
    THREE_QUARTERS,
    RotatedTerm,
    Rotor,
    chain_resultant,
    cyclic_closure,
    diff_reference,
    family_elements,
    multiplication_table,
    negative_nth_roots,
    nth_roots,
    pair_polar,
    roots_sum,
    rotor_mul,
    rotor_pow,
    rotor_value,
)

TAU = math.tau


def small_rotors(max_den):
    out = []
    for den in range(1, max_den + 1):
        for num in range(den):
            if math.gcd(num, den) == 1 or num == 0:
                r = Rotor(num, den)
                if r not in out:
                    out.append(r)
    return out


class TestRotor:
    def test_canonical_form(self):
        assert Rotor(3, 6) == Rotor(1, 2)
        assert Rotor(-1, 4) == Rotor(3, 4)
        assert Rotor(5, 4) == Rotor(1, 4)
        assert Rotor(2, -4) == Rotor(1, 2)
        assert Rotor(0, 7) == IDENTITY
        assert Rotor(7, 7) == IDENTITY

    def test_canonical_invariants(self):
        rng = random.Random(101)
        for _ in range(500):
            num = rng.randint(-40, 40)
            den = rng.randint(-15, 15) or 3
            r = Rotor(num, den)
            assert r.den >= 1
            assert 0 <= r.num < r.den
            assert math.gcd(r.num, r.den) == 1 or r.num == 0
            assert r.turn == Fraction(num, den) % 1

    def test_zero_denominator(self):
        with pytest.raises(InvalidOrder):
            Rotor(1, 0)

    def test_str(self):
        assert str(Rotor(3, 6)) == "rot(1,2)"
        assert str(IDENTITY) == "rot(0,1)"

    def test_value_quarter_turns_exact(self):
        assert rotor_value(IDENTITY) == 1 + 0j
        assert rotor_value(HALF) == -1 + 0j
        assert rotor_value(QUARTER) == 1j
        assert rotor_value(THREE_QUARTERS) == -1j

    def test_value_general(self):
        v = rotor_value(SIXTH)
        assert abs(v - complex(0.5, math.sqrt(3) / 2)) < 1e-15
        v8 = rotor_value(EIGHTH)
        assert abs(v8 - complex(math.sqrt(0.5), math.sqrt(0.5))) < 1e-15
        for r in small_rotors(12):
            assert abs(abs(rotor_value(r)) - 1.0) < 1e-15

    def test_value_of_a_denominator_past_float_range(self):
        # num / den, in [0, 1), is rounded once instead of converting den to a float
        assert rotor_value(Rotor(1, 10 ** 400)) == 1 + 0j
        third = rotor_value(Rotor(10 ** 400 // 3, 10 ** 400))
        assert abs(third - rotor_value(Rotor(1, 3))) < 1e-15


class TestRotorArithmetic:
    def test_mul_matches_complex(self):
        rotors = small_rotors(12)
        for a, b in itertools.product(rotors, repeat=2):
            got = rotor_value(rotor_mul(a, b))
            want = rotor_value(a) * rotor_value(b)
            assert abs(got - want) < 1e-12

    def test_mul_commutes_and_associates(self):
        rotors = small_rotors(8)
        for a, b in itertools.product(rotors, repeat=2):
            assert rotor_mul(a, b) == rotor_mul(b, a)
        for a, b, c in itertools.product(rotors[:12], repeat=3):
            assert rotor_mul(rotor_mul(a, b), c) == rotor_mul(a, rotor_mul(b, c))

    def test_pow(self):
        rng = random.Random(33)
        for _ in range(300):
            r = Rotor(rng.randint(-20, 20), rng.randint(1, 15))
            k = rng.randint(-6, 6)
            acc = IDENTITY
            for _ in range(abs(k)):
                acc = rotor_mul(acc, r)
            if k < 0:
                acc = Rotor(-acc.num, acc.den)
            assert rotor_pow(r, k) == acc
        assert rotor_pow(THIRD, 3) == IDENTITY
        assert rotor_pow(EIGHTH, -1) == Rotor(7, 8)

    def test_inverse(self):
        for r in small_rotors(12):
            assert rotor_mul(r, rotor_pow(r, -1)) == IDENTITY


class TestRootFamilies:
    def test_nth_roots(self):
        for n in range(1, 13):
            fam = nth_roots(n)
            assert len(fam) == n
            assert len(set(fam)) == n
            for r in fam:
                assert rotor_pow(r, n) == IDENTITY

    def test_negative_nth_roots(self):
        for n in range(1, 13):
            fam = negative_nth_roots(n)
            assert len(fam) == n
            assert len(set(fam)) == n
            for r in fam:
                # z^n = -1 exactly, as rotors
                assert rotor_pow(r, n) == HALF

    def test_invalid_order(self):
        with pytest.raises(InvalidOrder):
            nth_roots(0)
        with pytest.raises(InvalidOrder):
            negative_nth_roots(-2)

    def test_roots_sum_vanishes(self):
        for n in range(2, 13):
            assert abs(roots_sum(n)) <= 1e-12
            assert abs(roots_sum(n, negative=True)) <= 1e-12

    def test_roots_sum_order_one(self):
        assert roots_sum(1) == 1 + 0j
        assert roots_sum(1, negative=True) == -1 + 0j


class TestChains:
    def test_negative_magnitude_folds(self):
        t = RotatedTerm(IDENTITY, -2.0)
        assert t.rotor == HALF
        assert t.magnitude == 2.0
        t2 = RotatedTerm(THIRD, -1.5)
        assert t2.rotor == Rotor(5, 6)
        assert t2.magnitude == 1.5

    def test_resultant(self):
        assert chain_resultant([]) == 0j
        ring = [RotatedTerm(r, 1.0) for r in nth_roots(3)]
        assert abs(chain_resultant(ring)) < 1e-14
        z = chain_resultant([RotatedTerm(IDENTITY, 2.0), RotatedTerm(THIRD, 3.0)])
        assert abs(abs(z) - math.sqrt(7)) < 1e-12

    def test_pair_polar_reference_values(self):
        mod, ang = pair_polar(2.0, 0.0, 3.0, TAU / 3)
        assert abs(mod - 2.6457513110645907) < 1e-12      # sqrt(7)
        assert abs(ang - 1.3806707234484297) < 1e-12      # atan(3*sqrt(3))
        assert abs(mod - math.sqrt(7)) < 1e-12
        assert abs(ang - math.atan(3 * math.sqrt(3))) < 1e-12

    def test_pair_polar_matches_complex_sum(self):
        rng = random.Random(77)
        for _ in range(300):
            a = rng.uniform(-3, 3)
            b = rng.uniform(-3, 3)
            e1 = rng.uniform(-4, 4)
            e2 = rng.uniform(-4, 4)
            z = a * complex(math.cos(e1), math.sin(e1)) + b * complex(
                math.cos(e2), math.sin(e2)
            )
            if abs(z) < 1e-9:
                continue
            mod, ang = pair_polar(a, e1, b, e2)
            assert abs(mod - abs(z)) < 1e-10
            assert abs(ang - math.atan2(z.imag, z.real)) < 1e-9

    def test_pair_polar_angle_range(self):
        _, ang = pair_polar(2.0, math.pi, 1.0, 0.0)
        assert ang == math.pi  # sum is -1; boundary maps to +pi
        _, ang2 = pair_polar(1.0, -math.pi / 2, 0.0, 0.0)
        assert -math.pi < ang2 <= math.pi

    def test_pair_polar_zero_resultant(self):
        with pytest.raises(ZeroResultant):
            pair_polar(1.0, 0.0, 1.0, math.pi)


class TestCyclicClosure:
    def test_identity_generator(self):
        assert cyclic_closure(IDENTITY) == [IDENTITY]

    def test_sixth(self):
        cyc = cyclic_closure(SIXTH)
        assert len(cyc) == 6
        assert cyc[0] == IDENTITY
        assert cyc[1] == SIXTH
        assert set(cyc) == set(nth_roots(6))

    def test_eighth(self):
        cyc = cyclic_closure(EIGHTH)
        assert len(cyc) == 8
        assert set(cyc) == set(nth_roots(8))

    def test_unions_equal_generated_groups(self):
        assert set(family_elements("union3")) == set(cyclic_closure(SIXTH))
        assert set(family_elements("union8")) == set(cyclic_closure(EIGHTH))


class TestMultiplicationTable:
    def test_duplicates_rejected(self):
        with pytest.raises(DuplicateElements):
            multiplication_table([IDENTITY, Rotor(2, 2)])

    def test_unknown_family(self):
        with pytest.raises(InvalidOrder):
            family_elements("R9")

    def test_rn_axioms(self):
        for n in range(1, 13):
            table = multiplication_table(nth_roots(n))
            assert table.axiom_report.all_pass

    def test_product_indices(self):
        table = multiplication_table(family_elements("R4"))
        n = len(table.elements)
        for i in range(n):
            for j in range(n):
                idx = table.products[i][j]
                assert idx is not None
                assert table.elements[idx] == table.product_rotor(i, j)

    def test_negative_family_not_closed(self):
        for name in ("C3", "C4"):
            table = multiplication_table(family_elements(name))
            report = table.axiom_report
            assert not report.closure
            assert report.associativity   # rotor products always associate
            assert not report.identity    # identity rotor is not in the set
            assert not report.inverses
            assert not report.all_pass

    def test_union_tables_closed(self):
        for name, order in (("union3", 6), ("union8", 8)):
            table = multiplication_table(family_elements(name))
            assert len(table.elements) == order
            assert table.axiom_report.all_pass


class TestReferenceTables:
    def test_exact_transcriptions(self):
        for name in ("R3", "R4", "union3"):
            table = multiplication_table(family_elements(name))
            assert diff_reference(table, name) == []

    @pytest.mark.parametrize("family, name", [("C3", "C3"), ("C4", "C4"), ("R3", "R5")])
    def test_a_name_without_a_reference_is_refused(self, family, name):
        table = multiplication_table(family_elements(family))
        with pytest.raises(InvalidOrder, match=f"no reference table for family '{name}'"):
            diff_reference(table, name)

    @pytest.mark.parametrize("family, name", [("union8", "R3"), ("R3", "union8")])
    def test_a_table_of_another_size_is_refused(self, family, name):
        # the larger table would index past the reference; the smaller one
        # would be compared against its top-left corner only
        table = multiplication_table(family_elements(family))
        with pytest.raises(ArityMismatch):
            diff_reference(table, name)

    def test_union8_known_bad_cells(self):
        table = multiplication_table(family_elements("union8"))
        diffs = diff_reference(table, "union8")
        found = {(d.row, d.col): d for d in diffs}
        assert set(found) == {(2, 5), (2, 6), (2, 7), (3, 7), (6, 3)}
        expected = {
            (2, 5): (Fraction(1, 6), Fraction(1, 8)),
            (2, 6): (Fraction(2, 3), Fraction(5, 8)),
            (2, 7): (Fraction(11, 12), Fraction(7, 8)),
            (3, 7): (Fraction(1, 6), Fraction(1, 8)),
            (6, 3): (Fraction(11, 12), Fraction(7, 8)),
        }
        for cell, (printed, computed) in expected.items():
            assert found[cell].printed.turn == printed
            assert found[cell].computed.turn == computed

    def test_family_orders_are_distinct(self):
        for name, elems in FAMILY_ORDERS.items():
            assert len(set(elems)) == len(elems), name
