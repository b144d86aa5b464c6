import math
import random
from itertools import islice

import pytest

from rotorcalc.errors import (
    ArityMismatch,
    NonConvergent,
    ZeroDivisionInRatio,
    ZeroLeadingCoefficient,
)
from rotorcalc.recurrence import (
    CharPoly,
    Recurrence,
    characteristic_polynomial,
    characteristic_ratio,
    exact_terms,
    from_general,
    iterate,
)

FIB = Recurrence((1, 1), (0, 1))
LUCAS = Recurrence((1, 1), (2, 1))
TRIB = Recurrence((1, 1, 1), (0, 1, 1))
TRI_LUCAS = Recurrence((1, 1, 1), (3, 1, 3))
TETRA = Recurrence((1, 1, 1, 1), (0, 0, 0, 1))


class TestRecurrence:
    def test_order_and_integral(self):
        assert FIB.order == 2
        assert FIB.integral
        assert Recurrence((1.0, 2.0), (0.0, 1.0)).integral
        assert not Recurrence((0.5, 1), (0, 1)).integral
        assert not Recurrence((1, 1), (0.25, 1)).integral

    def test_arity(self):
        with pytest.raises(ArityMismatch):
            Recurrence((1, 1), (0,))
        with pytest.raises(ArityMismatch):
            Recurrence((), ())


class TestFromGeneral:
    def test_fibonacci_general_form(self):
        # -x_k - x_{k+1} + x_{k+2} = 0
        assert from_general((-1, -1, 1)) == (1, 1)

    def test_exact_division(self):
        assert from_general((3, -6, 3)) == (-1, 2)
        assert from_general((2, 4)) == (-0.5,)
        c = from_general((1, 3))
        assert isinstance(c[0], float)

    def test_zero_leading(self):
        with pytest.raises(ZeroLeadingCoefficient):
            from_general((1, 2, 0))

    def test_too_short(self):
        with pytest.raises(ArityMismatch):
            from_general((5,))


class TestIterate:
    def test_fibonacci(self):
        assert iterate(FIB, 11) == [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]

    def test_lucas(self):
        assert iterate(LUCAS, 11)[-1] == 123

    def test_tribonacci(self):
        assert iterate(TRIB, 11) == [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149]

    def test_tri_lucas(self):
        assert iterate(TRI_LUCAS, 7) == [3, 1, 3, 7, 11, 21, 39]

    def test_tetranacci(self):
        seq = iterate(TETRA, 13)
        assert seq[:9] == [0, 0, 0, 1, 1, 2, 4, 8, 15]
        assert seq[-1] == 208

    def test_short_counts(self):
        assert iterate(FIB, 0) == []
        assert iterate(FIB, 1) == [0]
        assert iterate(TRIB, 2) == [0, 1]

    def test_exact_bigints(self):
        seq = iterate(FIB, 301)
        assert all(isinstance(v, int) for v in seq)
        assert seq[300] > 10 ** 50
        assert seq[300] == seq[299] + seq[298]

    def test_float_mode(self):
        seq = iterate(Recurrence((0.5, 1), (1, 1)), 6)
        assert all(isinstance(v, float) for v in seq)
        assert seq == [1.0, 1.0, 1.5, 2.0, 2.75, 3.75]

    def test_shift_property(self):
        rng = random.Random(424)
        for _ in range(50):
            n = rng.randint(1, 4)
            rec = Recurrence(
                tuple(rng.randint(-3, 3) for _ in range(n)),
                tuple(rng.randint(-3, 3) for _ in range(n)),
            )
            m = rng.randint(1, 20)
            total = rng.randint(n, 30)
            seq = iterate(rec, m + total)
            shifted = Recurrence(rec.coeffs, tuple(seq[m:m + n]))
            assert iterate(shifted, total) == seq[m:m + total]


class TestCharPoly:
    def test_fields(self):
        p = characteristic_polynomial(TRIB)
        assert p.degree == 3
        assert p.coeffs == (1, 1, 1)

    def test_degree_mismatch(self):
        with pytest.raises(ArityMismatch):
            CharPoly(2, (1, 1, 1))

    def test_value(self):
        p = characteristic_polynomial(FIB)
        phi = (1 + math.sqrt(5)) / 2
        assert abs(p.value(phi)) < 1e-14
        assert p.value(0) == -1
        assert p.value(2) == 1  # 4 - 2 - 1


class TestCharacteristicRatio:
    def test_fibonacci_golden_ratio(self):
        phi = (1 + math.sqrt(5)) / 2
        assert abs(characteristic_ratio(FIB, 90) - phi) <= 1e-12

    def test_geometric_exact(self):
        rec = Recurrence((2,), (1,))
        for iters in (3, 10, 50):
            assert characteristic_ratio(rec, iters) == 2.0

    def test_tetranacci(self):
        ratio = characteristic_ratio(TETRA, 120)
        assert abs(ratio - 1.9275619754829254) <= 1e-10

    def test_min_iterations(self):
        with pytest.raises(ValueError):
            characteristic_ratio(FIB, 3)
        rec = Recurrence((2,), (1,))
        with pytest.raises(ValueError):
            characteristic_ratio(rec, 2)
        assert characteristic_ratio(rec, 3) == 2.0  # boundary accepted

    def test_zero_probe_term(self):
        rec = Recurrence((1, 0), (0, 1))  # 0,1,0,1,...
        with pytest.raises(ZeroDivisionInRatio):
            characteristic_ratio(rec, 10)

    def test_oscillating_never_settles(self):
        rec = Recurrence((-2, 1), (1, 1))  # complex dominant pair
        with pytest.raises(NonConvergent):
            characteristic_ratio(rec, 20)


def _iterate_by_window(rec, count):
    """The earlier iterate: a window of the last n terms, rebuilt each step."""
    if rec.integral:
        window = [int(x) for x in rec.seeds]
        coeffs = [int(c) for c in rec.coeffs]
    else:
        window = [float(x) for x in rec.seeds]
        coeffs = [float(c) for c in rec.coeffs]
    out = list(window[:count])
    while len(out) < count:
        nxt = sum(c * x for c, x in zip(coeffs, window))
        out.append(nxt)
        window = window[1:] + [nxt]
    return out


def _bits(terms):
    return [x.hex() if isinstance(x, float) else x for x in terms]


def test_iterate_matches_the_window_loop():
    rng = random.Random(4711)
    for i in range(400):
        order = rng.randint(1, 6)
        if i % 2:
            coeffs = [rng.randint(-12, 12) / 4 or 0.25 for _ in range(order)]
            seeds = [rng.randint(-20, 20) / 4 for _ in range(order)]
        else:
            coeffs = [rng.randint(-5, 5) or 1 for _ in range(order)]
            seeds = [rng.randint(-9, 9) for _ in range(order)]
        rec = Recurrence(coeffs, seeds)
        count = rng.choice([0, 1, order - 1, order, rng.randint(0, 300)])
        got = iterate(rec, count)
        assert len(got) == count
        assert _bits(got) == _bits(_iterate_by_window(rec, count)), (rec, count)


@pytest.mark.parametrize("order", range(1, 7))
def test_integral_steps_match_the_window_loop(order):
    # orders 2-4 take the unrolled integer step, 1, 5 and 6 the generic one
    rng = random.Random(90 + order)
    coeff_sets = [
        [0] * order,
        [0] * (order - 1) + [-1],
        [rng.randint(-5, 5) for _ in range(order)],
        [float(rng.choice((0, 1, -2, 3))) for _ in range(order)],  # integral floats
    ]
    seed_sets = [
        [rng.randint(-9, 9) for _ in range(order)],
        [2 ** 64 + rng.randint(-9, 9) for _ in range(order)],
        [-(10 ** 400) + rng.randint(-9, 9) for _ in range(order)],  # past float range
    ]
    for coeffs in coeff_sets:
        for seeds in seed_sets:
            rec = Recurrence(coeffs, seeds)
            assert rec.integral
            want = _iterate_by_window(rec, 2000)
            for count in [*range(order + 3), 2000]:
                got = iterate(rec, count)
                assert got == want[:count] and all(type(x) is int for x in got), (rec, count)
            for start in (1, order, order + 1, 1234):  # reads that start mid-stream
                got = list(islice(exact_terms(rec), start, start + 50))
                assert got == want[start:start + 50], (rec, start)
