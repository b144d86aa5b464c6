import cmath
import math
import random
import sys
import threading
import time
import weakref
from fractions import Fraction

import pytest

from rotorcalc.errors import (
    ArityMismatch,
    InconsistentSigmas,
    TermOverflow,
    UnsupportedDegree,
)
from rotorcalc.recurrence import CharPoly
from rotorcalc.roots import (
    _MEMO_SIZE,
    _PINV4,
    _ROWS4,
    _memo,
    cubic_resolvents,
    cubic_roots,
    numeric_roots,
    permutation_tables,
    quadratic_roots,
    roots_from_sigma,
    sigma_from_roots,
    vieta_residuals,
)
from rotorcalc.unity import Rotor, rotor_value

from helpers import clear_memos, memos

OMEGA = rotor_value(Rotor(1, 3))
OMEGA2 = rotor_value(Rotor(2, 3))

PHI = (1 + math.sqrt(5)) / 2


def match_roots(got, want):
    """Greedy nearest matching; returns the worst pair distance."""
    got = list(got)
    worst = 0.0
    for w in want:
        best = min(range(len(got)), key=lambda i: abs(got[i] - w))
        worst = max(worst, abs(got.pop(best) - w))
    return worst


class TestQuadratic:
    def test_golden_ratio(self):
        rs, sigma1 = quadratic_roots(1, 1)
        assert abs(rs.roots[0] - PHI) < 1e-12
        assert abs(rs.roots[1] - (1 - math.sqrt(5)) / 2) < 1e-12
        assert abs(sigma1 - math.sqrt(5)) < 1e-12
        assert rs.method == "closed2"
        assert max(rs.residuals) < 1e-12
        assert abs(rs.min_separation - abs(sigma1)) < 1e-12

    def test_complex_pair(self):
        rs, sigma1 = quadratic_roots(-1, 0)  # x^2 = -1
        assert sigma1 == 2j  # principal sqrt of -4
        assert rs.roots == (1j, -1j)

    def test_double_root(self):
        rs, sigma1 = quadratic_roots(-1, 2)  # (x-1)^2
        assert sigma1 == 0
        assert rs.roots == (1 + 0j, 1 + 0j)
        assert rs.min_separation == 0

    def test_sorting_convention(self):
        # x^2 = -3x - 2 -> roots -1, -2; larger modulus first
        rs, _ = quadratic_roots(-2, -3)
        assert abs(rs.roots[0] + 2) < 1e-12
        assert abs(rs.roots[1] + 1) < 1e-12


class TestCubicResolvents:
    def test_reference_values(self):
        res = cubic_resolvents(1, 1, 1)
        assert res.degree == 3
        assert res.A == 38.0
        assert res.B == 4.0
        assert abs(res.sigmas[0] - 3.3090564799660944) < 1e-12
        assert abs(res.sigmas[1] - 1.2088037856763885) < 1e-12

    def test_branch_pairing(self):
        res = cubic_resolvents(1, 1, 1)
        assert abs(res.sigmas[0] * res.sigmas[1] - res.B) <= 1e-9 * (1 + abs(res.B))

    def test_triple_zero(self):
        res = cubic_resolvents(0, 0, 0)
        assert res.A == 0 and res.B == 0
        assert res.sigmas == (0j, 0j)

    def test_branch_pairing_random(self):
        rng = random.Random(515)
        for _ in range(300):
            c0 = rng.uniform(-5, 5)
            c1 = rng.uniform(-5, 5)
            c2 = rng.uniform(-5, 5)
            res = cubic_resolvents(c0, c1, c2)
            s1, s2 = res.sigmas
            assert abs(s1 * s2 - res.B) <= 1e-9 * (1 + abs(res.B))
            # sigma cubes are the two resolvent-quadratic roots
            y_sum = s1 ** 3 + s2 ** 3
            assert abs(y_sum - res.A) <= 1e-8 * (1 + abs(res.A))

    def test_negative_y1_takes_the_principal_branch(self):
        # x^3 = x - 1: A = -27, B = 3, both resolvent cubes are negative reals
        # and |y1| < |y2|.  sigma1 is the principal cube root of y1 (arg pi/3),
        # not its conjugate, so the roots keep the labelling of y1 = (A + sq)/2.
        s1, s2 = cubic_resolvents(-1, 1, 0).sigmas
        assert abs(s1 - (0.5065901264600882 + 0.8774398376416152j)) <= 1e-12
        assert abs(s2 - (1.4804868094070294 - 2.564278373828519j)) <= 1e-12

    def test_beyond_float_range(self):
        # c2 ** 3 leaves float range as a float power
        with pytest.raises(TermOverflow):
            cubic_resolvents(1, 1, 1e120)


QUADRATIC_OVERFLOW = "the quadratic discriminant is beyond float range"
CUBIC_OVERFLOW = "the cubic resolvent discriminant is beyond float range"


class TestDiscriminant:
    def test_each_value_is_the_exact_one_rounded_once(self):
        # |c_j| log-uniform in [1e-6, 1e9] with random signs: inputs on which the
        # formulas, evaluated in floats, round at almost every operation
        rng = random.Random(2002)

        def draw():
            return rng.choice((-1, 1)) * 10 ** rng.uniform(-6, 9)
        for _ in range(1000):
            c0, c1 = draw(), draw()
            f0, f1 = Fraction(c0), Fraction(c1)
            assert quadratic_roots(c0, c1)[1] == cmath.sqrt(float(f1 * f1 + 4 * f0)), (c0, c1)
            c0, c1, c2 = draw(), draw(), draw()
            f0, f1, f2 = Fraction(c0), Fraction(c1), Fraction(c2)
            res = cubic_resolvents(c0, c1, c2)
            assert res.A == float(2 * f2 ** 3 + 9 * f1 * f2 + 27 * f0), (c0, c1, c2)
            assert res.B == float(f2 * f2 + 3 * f1), (c0, c1, c2)

    @pytest.mark.parametrize("solve, coeffs, message", [
        (quadratic_roots, (math.inf, 1), QUADRATIC_OVERFLOW),
        (quadratic_roots, (math.nan, 1), QUADRATIC_OVERFLOW),
        (cubic_resolvents, (math.inf, 1, 1), CUBIC_OVERFLOW),
        (cubic_resolvents, (1, math.nan, 1), CUBIC_OVERFLOW),
        # a coefficient past float range whose discriminant cancels to 0:
        # (x - 10^200)^2 and (x - 10^140)^3
        (quadratic_roots, (-10 ** 400, 2 * 10 ** 200), QUADRATIC_OVERFLOW),
        (cubic_roots, (10 ** 420, -3 * 10 ** 280, 3 * 10 ** 140), CUBIC_OVERFLOW),
    ], ids=["quadratic_inf", "quadratic_nan", "cubic_inf", "cubic_nan",
            "quadratic_huge_c0", "cubic_huge_c0"])
    def test_non_finite_or_huge_coefficient(self, solve, coeffs, message):
        with pytest.raises(TermOverflow) as err:
            solve(*coeffs)
        assert str(err.value) == message


def assert_cubic_answers(c0, c1, c2):
    """cubic_roots answers with every residual within 1e-12 of the size of the
    polynomial's terms at the root, and sigma1 * sigma2 = B."""
    rs = cubic_roots(c0, c1, c2)
    for r, residual in zip(rs.roots, rs.residuals):
        R = max(1.0, abs(r))
        assert residual <= 1e-12 * (R ** 3 + abs(c2) * R ** 2 + abs(c1) * R + abs(c0)), (c0, c1, c2)
    res = cubic_resolvents(c0, c1, c2)
    assert abs(res.sigmas[0] * res.sigmas[1] - res.B) <= 1e-12 * (1 + abs(res.B)), (c0, c1, c2)
    if res.A * res.A > 4.0 * res.B ** 3:  # y1 is real: principal cube root has arg 0 or pi/3
        assert res.sigmas[0].imag >= 0, (c0, c1, c2)


class TestCubicRoots:
    def test_integer_factors(self):
        # (x-1)(x-2)(x-3): x^3 = 6x^2 - 11x + 6
        rs = cubic_roots(6, -11, 6)
        assert rs.method == "closed3"
        assert match_roots(rs.roots, [3, 2, 1]) < 1e-10
        assert abs(rs.roots[0] - 3) < 1e-10  # sorted by modulus

    def test_tribonacci_constant(self):
        rs = cubic_roots(1, 1, 1)
        assert abs(rs.roots[0] - 1.839286755214161) < 1e-12
        assert max(rs.residuals) <= 1e-8 * 2

    def test_residual_invariant_random(self):
        rng = random.Random(909)
        for _ in range(200):
            c = [rng.uniform(-5, 5) for _ in range(3)]
            rs = cubic_roots(*c)
            scale = 1 + max(abs(v) for v in c)
            assert max(rs.residuals) <= 1e-8 * scale

    def test_random_cubics_answer_accurately(self):
        # integral, quarter-grid and large-constant-term (|c0| up to 1e12) cubics
        rng = random.Random(1313)
        for _ in range(500):
            assert_cubic_answers(*(rng.randint(-9, 9) for _ in range(3)))
            assert_cubic_answers(*(rng.randint(-36, 36) / 4 for _ in range(3)))
            assert_cubic_answers(rng.choice((-1, 1)) * 10 ** rng.uniform(0, 12),
                                 rng.uniform(-3, 3), rng.uniform(-3, 3))

    @pytest.mark.parametrize("c", [
        (1e6, 1, 0), (1e8, 3, 0), (-1e6, 1, 0), (1e12, 1, 0),
        # A = -27, |B| ~ 4.5e-108: the quotient B^3 / y2 would be subnormal
        (-1, 1.51e-108, 0), (-1, -1.51e-108, 0),
    ], ids=["1e6,1,0", "1e8,3,0", "-1e6,1,0", "1e12,1,0", "tiny_B", "tiny_negative_B"])
    def test_large_constant_term(self, c):
        # |A| >> |B|^(3/2): (A - sqrt(A^2 - 4 B^3))/2 cancels to noise
        assert_cubic_answers(*c)

    def test_beyond_float_range(self):
        # B ** 3 with B = 3e200 leaves float range as a float power
        with pytest.raises(TermOverflow):
            cubic_roots(1, 1e200, 1)


class TestNumericRoots:
    def test_quadratic(self):
        rs = numeric_roots(CharPoly(2, (1, 1)))
        assert rs.method == "numeric"
        assert abs(rs.roots[0] - PHI) < 1e-10

    def test_matches_closed_cubic(self):
        closed = cubic_roots(6, -11, 6)
        numeric = numeric_roots(CharPoly(3, (6, -11, 6)))
        assert match_roots(numeric.roots, closed.roots) < 1e-8

    def test_tetranacci_constant(self):
        rs = numeric_roots(CharPoly(4, (1, 1, 1, 1)))
        assert abs(rs.roots[0].real - 1.9275619754829254) < 1e-9
        assert abs(rs.roots[0].imag) < 1e-12
        assert max(rs.residuals) <= 1e-8 * 2

    def test_degree_one(self):
        rs = numeric_roots(CharPoly(1, (7,)))
        assert abs(rs.roots[0] - 7) < 1e-10

    def test_repeated_root(self):
        rs = numeric_roots(CharPoly(2, (-1, 2)))  # (x-1)^2
        assert match_roots(rs.roots, [1, 1]) < 1e-5
        assert max(rs.residuals) < 1e-9

    def test_high_degree(self):
        # x^6 = 1: the sixth roots of unity
        rs = numeric_roots(CharPoly(6, (1, 0, 0, 0, 0, 0)))
        want = [cmath.exp(2j * cmath.pi * k / 6) for k in range(6)]
        assert match_roots(rs.roots, want) < 1e-9

    @pytest.mark.parametrize("c3", [1e300, 10 ** 100, 10 ** 400],
                             ids=["1e300", "10**100", "10**400"])
    def test_beyond_float_range(self, c3):
        # 1e300 and 10**100: z^4 leaves float range on the start circle, so the
        # update is NaN, which the convergence test alone would take for
        # convergence; 10**400: the start radius cannot be a float
        with pytest.raises(TermOverflow):
            numeric_roots(CharPoly(4, (1, 1, 1, c3)))


class TestVieta:
    def test_quadratic(self):
        rs, _ = quadratic_roots(1, 1)
        res = vieta_residuals(rs, CharPoly(2, (1, 1)))
        assert len(res) == 2
        assert max(res) < 1e-12

    def test_cubic_random(self):
        rng = random.Random(2718)
        for _ in range(100):
            c = [rng.uniform(-5, 5) for _ in range(3)]
            rs = cubic_roots(*c)
            res = vieta_residuals(rs, CharPoly(3, tuple(c)))
            assert max(res) <= 1e-8 * (1 + max(abs(v) for v in c)) ** 3

    def test_arity(self):
        rs, _ = quadratic_roots(1, 1)
        with pytest.raises(ArityMismatch):
            vieta_residuals(rs, CharPoly(3, (1, 1, 1)))


class TestPermutationTables:
    def test_counts(self):
        assert len(permutation_tables(2)) == 2
        assert len(permutation_tables(3)) == 3
        assert len(permutation_tables(4)) == 7
        with pytest.raises(UnsupportedDegree):
            permutation_tables(5)

    def test_rows_are_cyclic_rotations(self):
        for n in (2, 3, 4):
            for table in permutation_tables(n):
                arrangement = table.rows[0]
                assert sorted(arrangement) == list(range(n))
                for k, row in enumerate(table.rows):
                    assert row == tuple(arrangement[(m - k) % n] for m in range(n))

    def test_signatures(self):
        sym, s1, s2 = permutation_tables(3)
        assert sym.signature == (Rotor(0, 1),) * 3
        assert s1.signature == (Rotor(0, 1), Rotor(1, 3), Rotor(2, 3))
        assert s2.signature == (Rotor(0, 1), Rotor(2, 3), Rotor(1, 3))
        assert permutation_tables(4)[0].signature == (Rotor(0, 1),) * 4
        for table in permutation_tables(4)[1:]:
            assert table.signature == (
                Rotor(0, 1), Rotor(1, 4), Rotor(3, 4), Rotor(1, 2)
            )

    def test_signed_signature_values_sum_to_zero(self):
        for n in (2, 3, 4):
            for table in permutation_tables(n)[1:]:
                total = sum(rotor_value(r) for r in table.signature)
                assert abs(total) < 1e-12

    def test_quartic_arrangements(self):
        firsts = [t.rows[0] for t in permutation_tables(4)[1:]]
        assert firsts == [
            (0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3),
            (0, 2, 3, 1), (0, 3, 1, 2), (0, 3, 2, 1),
        ]


class TestSigmaExtraction:
    def test_symmetric_rows_give_trace(self):
        res = cubic_resolvents(1, 1, 1)
        roots = roots_from_sigma(1.0, list(res.sigmas), 3)
        sym = permutation_tables(3)[0]
        for value in sigma_from_roots(roots, sym):
            assert abs(value - 1.0) < 1e-10

    def test_signed_rows_are_rotated_sigmas(self):
        res = cubic_resolvents(1, 1, 1)
        s1, s2 = res.sigmas
        roots = roots_from_sigma(1.0, [s1, s2], 3)
        _, t1, t2 = permutation_tables(3)
        rows1 = sigma_from_roots(roots, t1)
        assert abs(rows1[0] - s1) < 1e-10
        assert abs(rows1[1] - OMEGA * s1) < 1e-10
        assert abs(rows1[2] - OMEGA2 * s1) < 1e-10
        rows2 = sigma_from_roots(roots, t2)
        assert abs(rows2[0] - s2) < 1e-10
        assert abs(rows2[1] - OMEGA2 * s2) < 1e-10
        assert abs(rows2[2] - OMEGA * s2) < 1e-10

    def test_equal_roots_kill_signed_rows(self):
        table = permutation_tables(3)[1]
        for value in sigma_from_roots([2, 2, 2], table):
            assert abs(value) < 1e-12

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            sigma_from_roots([1, 2], permutation_tables(3)[0])


class TestRootsFromSigma:
    def test_quadratic_reconstruction(self):
        got = roots_from_sigma(1.0, [math.sqrt(5)], 2)
        assert abs(got[0] - PHI) < 1e-12
        assert abs(got[1] - (1 - math.sqrt(5)) / 2) < 1e-12

    def test_round_trip_n2_n3(self):
        rng = random.Random(1234)
        for _ in range(300):
            roots2 = [complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(2)]
            sig = sigma_from_roots(roots2, permutation_tables(2)[1])[0]
            back = roots_from_sigma(sum(roots2), [sig], 2)
            assert match_roots(back, roots2) < 1e-10

            roots3 = [complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(3)]
            _, t1, t2 = permutation_tables(3)
            s1 = sigma_from_roots(roots3, t1)[0]
            s2 = sigma_from_roots(roots3, t2)[0]
            back = roots_from_sigma(sum(roots3), [s1, s2], 3)
            # exact reconstruction preserves the labelling order
            worst = max(abs(a - b) for a, b in zip(back, roots3))
            assert worst < 1e-10

    def test_round_trip_n4(self):
        rng = random.Random(4321)
        tables = permutation_tables(4)[1:]
        for _ in range(300):
            roots4 = [complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(4)]
            sigmas = [sigma_from_roots(roots4, t)[0] for t in tables]
            back = roots_from_sigma(sum(roots4), sigmas, 4)
            worst = max(abs(a - b) for a, b in zip(back, roots4))
            assert worst < 1e-8

    def test_constant_pseudo_inverse_round_trip_n4(self):
        # _PINV4 is a left inverse of the 7x4 reconstruction matrix
        for i in range(4):
            for j in range(4):
                entry = sum(_PINV4[i][r] * _ROWS4[r][j] for r in range(7))
                assert abs(entry - (1.0 if i == j else 0.0)) < 1e-15
        tetra = numeric_roots(CharPoly(4, (1, 1, 1, 1))).roots
        for roots4 in (tetra, (2, -1, 0.5j, -0.5j), (1 + 1j, 1 - 1j, -3, 0)):
            sigmas = [sigma_from_roots(roots4, t)[0] for t in permutation_tables(4)[1:]]
            back = roots_from_sigma(sum(roots4), sigmas, 4)
            assert max(abs(a - b) for a, b in zip(back, roots4)) < 1e-12

    def test_inconsistent_sigmas(self):
        rng = random.Random(99)
        tables = permutation_tables(4)[1:]
        roots4 = [complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(4)]
        sigmas = [sigma_from_roots(roots4, t)[0] for t in tables]
        sigmas[2] += 1.0
        with pytest.raises(InconsistentSigmas):
            roots_from_sigma(sum(roots4), sigmas, 4)

    @pytest.mark.parametrize("bad", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_sigmas_are_inconsistent(self, bad):
        # a NaN residual compares false against any bound, so it must not pass
        tetra = numeric_roots(CharPoly(4, (1, 1, 1, 1))).roots
        sigmas = [sigma_from_roots(tetra, t)[0] for t in permutation_tables(4)[1:]]
        for i in range(6):
            with pytest.raises(InconsistentSigmas):
                roots_from_sigma(sum(tetra), sigmas[:i] + [bad] + sigmas[i + 1:], 4)

    def test_n4_tolerance_is_relative_to_one_plus_the_largest_input(self):
        # the residual bound is 1e-8 * (1 + max(|c_top|, |sigma_j|)): consistent
        # tuples at scales ~1e6 and ~1e8 pass (at 1e8 every residual here is
        # above 1e-8), and a near-zero tuple whose residual, 1.5e-8, lies
        # between 1e-8 * (1 + max) and 1e-8 * (2 + max) is refused
        rng = random.Random(5)
        tables = permutation_tables(4)[1:]
        for scale in (1e6, 1e8):
            for _ in range(20):
                roots4 = [complex(rng.gauss(0, scale), rng.gauss(0, scale)) for _ in range(4)]
                sigmas = [sigma_from_roots(roots4, t)[0] for t in tables]
                back = roots_from_sigma(sum(roots4), sigmas, 4)
                assert max(abs(a - b) for a, b in zip(back, roots4)) < 1e-8 * scale
        with pytest.raises(InconsistentSigmas, match=r"residual 1\.5e-08"):
            roots_from_sigma(0.0, [3e-8, 0.0, 0.0, 0.0, 0.0, 0.0], 4)

    def test_arity_and_degree(self):
        with pytest.raises(ArityMismatch, match="^degree 2 takes exactly one sigma$"):
            roots_from_sigma(0, [1, 2], 2)
        with pytest.raises(ArityMismatch, match="^degree 3 takes exactly two sigmas$"):
            roots_from_sigma(0.0, [1.0], 3)
        with pytest.raises(ArityMismatch, match="^degree 4 takes exactly six sigmas$"):
            roots_from_sigma(0.0, [1.0] * 5, 4)
        with pytest.raises(UnsupportedDegree):
            roots_from_sigma(0.0, [1.0] * 6, 5)


class TestClosedVersusNumeric:
    def test_random_cubics_agree(self):
        rng = random.Random(31337)
        for _ in range(300):
            c = [rng.uniform(-5, 5) for _ in range(3)]
            closed = cubic_roots(*c)
            numeric = numeric_roots(CharPoly(3, tuple(c)))
            assert match_roots(numeric.roots, closed.roots) < 1e-8


class TestMemo:
    def test_every_solver_and_form_builder_remembers(self):
        names = {fn.__name__ for fn in memos()}
        # the forms built from the roots are kept on each Recurrence instead
        assert names == {"root_analysis", "numeric_roots"}

    @pytest.mark.parametrize("first, second", [
        (0.0, -0.0), (-0.0, 0.0), (1, 1.0), (1.0, 1), (2 ** 60 + 1, float(2 ** 60 + 1)),
    ], ids=["0.0,-0.0", "-0.0,0.0", "1,1.0", "1.0,1", "2**60+1,float"])
    def test_arguments_with_different_reprs_get_their_own_entry(self, first, second):
        calls = []
        echo = _memo(lambda x: calls.append(x) or (x,))
        assert repr(echo(first)) == repr((first,))
        assert repr(echo(second)) == repr((second,))
        assert repr(echo(first)) == repr((first,))
        assert len(calls) == 2

    def test_keyword_arguments_are_part_of_the_key(self):
        echo = _memo(lambda x, y=0: (x, y))
        assert echo(1, y=2) == (1, 2)
        assert echo(1, y=3) == (1, 3)
        assert echo(1) == (1, 0)

    def test_signed_zero_coefficient(self):
        # -0.0 == 0.0, but x^2 = -1 + 0.0 x and x^2 = -1 - 0.0 x give different bits
        plus = quadratic_roots(-1.0, 0.0)
        minus = quadratic_roots(-1.0, -0.0)
        assert repr(plus[0].roots) == "(1j, -1j)"
        assert repr(minus[0].roots) == "(1j, (-0-1j))"
        assert repr(quadratic_roots(-1.0, 0.0)) == repr(plus)
        clear_memos()
        assert repr(quadratic_roots(-1.0, -0.0)) == repr(minus)

    def test_a_hit_returns_the_stored_result(self):
        first = cubic_roots(1, 1, 1)
        assert cubic_roots(1, 1, 1) is first
        assert cubic_roots(1.0, 1, 1) is not first

    def test_overflow_is_raised_on_every_call(self):
        messages = []
        for _ in range(3):
            with pytest.raises(TermOverflow) as err:
                quadratic_roots(10 ** 400, 1)
            messages.append(str(err.value))
        assert messages == ["the quadratic discriminant is beyond float range"] * 3

    def test_errors_are_not_remembered(self):
        calls = []

        def flaky(x):
            calls.append(x)
            if len(calls) == 1:
                raise TermOverflow("first call")
            return (x,)
        remembered = _memo(flaky)
        with pytest.raises(TermOverflow, match="first call"):
            remembered(1)
        assert remembered(1) == (1,)
        assert remembered(1) == (1,)
        assert calls == [1, 1]

    def test_an_argument_too_long_for_repr_is_solved_uncached(self):
        # repr of an int of more than 4300 digits raises ValueError
        for _ in range(2):
            with pytest.raises(TermOverflow):
                quadratic_roots(10 ** 5000, 1)

    def test_memory_is_bounded_and_the_oldest_goes_first(self):
        class Result:
            pass
        calls = []
        results = {}

        def solve(x):
            calls.append(x)
            results[x] = Result()
            return results[x]
        remembered = _memo(solve)
        live = [weakref.ref(remembered(x)) for x in range(_MEMO_SIZE + 10)]
        results.clear()
        assert sum(ref() is not None for ref in live) == _MEMO_SIZE
        assert all(ref() is None for ref in live[:10])
        calls.clear()
        for x in reversed(range(10, _MEMO_SIZE + 10)):
            remembered(x)
        assert calls == []
        remembered(0)
        assert calls == [0]

    def test_cache_clear_forgets_every_entry(self):
        calls = []
        echo = _memo(lambda x: calls.append(x) or (x,))
        echo(1)
        echo.cache_clear()
        echo(1)
        assert calls == [1, 1]

    def test_racing_threads_never_raise(self):
        # more threads than keys fit, a tiny switch interval and a clearing
        # thread: entries may be lost, but every call answers correctly
        square = _memo(lambda x: (x, x * x))
        errors = []
        stop = time.monotonic() + 1.0

        def hammer(offset):
            try:
                i = offset
                while time.monotonic() < stop:
                    x = i % (2 * _MEMO_SIZE)
                    assert square(x) == (x, x * x)
                    i += 7
            except BaseException as exc:  # reported by the main thread
                errors.append(exc)

        def clearer():
            while time.monotonic() < stop:
                square.cache_clear()
                time.sleep(0.001)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
            threads.append(threading.Thread(target=clearer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
