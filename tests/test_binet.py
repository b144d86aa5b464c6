import cmath
import math
import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

import rotorcalc.binet
import rotorcalc.roots
from rotorcalc.binet import (
    MForm,
    PowerTable,
    _power_sum,
    _seed_form,
    _solve,
    binet2,
    binet3,
    closed_term,
    component,
    m_form,
    solve_weights,
    verify,
)
from rotorcalc.errors import (
    ArityMismatch,
    DegenerateRoots,
    DomainError,
    SingularSystem,
    TermOverflow,
    UnsupportedDegree,
)
from rotorcalc.recurrence import CharPoly, Recurrence, exact_terms, iterate
from rotorcalc.roots import (
    CHAIN_ROWS,
    cubic_resolvents,
    cubic_roots,
    numeric_roots,
    quadratic_roots,
    root_analysis,
)

from helpers import clear_memos

FIB = Recurrence((1, 1), (0, 1))
LUCAS = Recurrence((1, 1), (2, 1))
TRIB = Recurrence((1, 1, 1), (0, 1, 1))
TRI_LUCAS = Recurrence((1, 1, 1), (3, 1, 3))
TETRA = Recurrence((1, 1, 1, 1), (0, 0, 0, 1))

SQRT5 = math.sqrt(5)


def random_integral(rng, order):
    return Recurrence(
        tuple(rng.randint(-3, 3) for _ in range(order)),
        tuple(rng.randint(-3, 3) for _ in range(order)),
    )


def random_quarter(rng, order):
    return Recurrence(
        tuple(rng.randint(-12, 12) / 4 or 0.25 for _ in range(order)),
        tuple(rng.randint(-20, 20) / 4 for _ in range(order)),
    )


class TestSolveWeights:
    def test_fibonacci_weights(self):
        form = solve_weights(FIB)
        assert abs(form.weights[0] - 1 / SQRT5) < 1e-12
        assert abs(form.weights[1] + 1 / SQRT5) < 1e-12
        assert abs(form.weights[2]) < 1e-12

    def test_lucas_weights(self):
        form = solve_weights(LUCAS)
        assert abs(form.weights[0] - 1) < 1e-12
        assert abs(form.weights[1] - 1) < 1e-12
        assert abs(form.weights[2]) < 1e-12

    def test_order_one(self):
        form = solve_weights(Recurrence((2,), (3,)))
        assert abs(form.roots.roots[0] - 2) < 1e-10
        assert abs(form.weights[0] - 3) < 1e-9
        assert abs(form.weights[1]) < 1e-9

    def test_root_at_one_is_singular(self):
        with pytest.raises(SingularSystem):
            solve_weights(Recurrence((0, 1), (1, 1)))

    def test_degenerate_checked_before_singular(self):
        # (x-1)^2: the double root must win over the root-at-1 report
        with pytest.raises(DegenerateRoots):
            solve_weights(Recurrence((-1, 2), (0, 1)))


class TestLinearSolve:
    def test_exactly_singular_complex_system(self):
        # the second row is exactly twice the first, so elimination leaves a 0 pivot
        with pytest.raises(SingularSystem):
            _solve([[1 + 1j, 2j], [2 + 2j, 4j]], [1j, 2])
        with pytest.raises(SingularSystem):
            _solve([[0j, 1 + 1j], [0j, 2 - 1j]], [1, 1])

    def test_zero_first_pivot_forces_row_swap(self):
        matrix = [[0j, 1 + 1j, 2], [1j, 2, 0.5], [3, 1, 1j]]
        want = [1 - 2j, 0.5j, 3]
        rhs = [sum(a * x for a, x in zip(row, want)) for row in matrix]
        got = _solve(matrix, rhs)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-12

    def test_random_systems_have_small_residuals(self):
        rng = random.Random(77)
        for n in range(1, 6):
            for _ in range(40):
                matrix = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                          for _ in range(n)]
                rhs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
                x = _solve(matrix, rhs)
                residual = max(abs(sum(a * z for a, z in zip(row, x)) - b)
                               for row, b in zip(matrix, rhs))
                scale = max(abs(z) for z in x) * max(abs(a) for row in matrix for a in row)
                assert residual <= 1e-12 * max(1.0, scale)


class TestClosedTerm:
    def test_fibonacci_term(self):
        form = solve_weights(FIB)
        tv = closed_term(form, 10)
        assert abs(tv.value - 55) <= 1e-9 * 55
        assert tv.nearest == 55
        assert tv.distance <= 1e-9

    def test_term_zero(self):
        form = solve_weights(FIB)
        assert closed_term(form, 0).nearest == 0

    def test_non_integral_has_no_snap(self):
        form = solve_weights(Recurrence((0.5, 1), (1, 1)))
        tv = closed_term(form, 6)
        assert tv.nearest is None
        assert tv.distance is None

    def test_value_is_the_form_evaluated_bitwise(self):
        rng = random.Random(4242)
        checked = 0
        while checked < 200:
            order = 2 + checked % 4
            rec = random_integral(rng, order) if checked // 4 % 2 else Recurrence(
                tuple(rng.randint(-12, 12) / 4 for _ in range(order)),
                tuple(rng.randint(-12, 12) / 4 for _ in range(order)),
            )
            try:
                form = solve_weights(rec)
            except DomainError:
                continue
            for k in (0, 1, 4, 17, 60):
                want = closed_term(form, k).value
                got = form.evaluate(k)
                assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())
            checked += 1

    def test_snap_matches_exact_iterate(self):
        rng = random.Random(6021)
        checked = 0
        while checked < 40:
            rec = random_integral(rng, rng.randint(2, 4))
            try:
                form = solve_weights(rec)
            except DomainError:
                continue
            exact = iterate(rec, 21)
            if max(abs(v) for v in exact) > 10 ** 9:
                continue
            for k in (0, 3, 11, 20):
                assert closed_term(form, k).nearest == exact[k]
            checked += 1


class TestBinet2:
    def test_fibonacci_all_k(self):
        exact = iterate(FIB, 71)
        for k, want in enumerate(exact):
            got = binet2(FIB, k)
            assert round(got) == want
            assert abs(got - want) <= 1e-9 * max(1, abs(want))

    def test_lucas_all_k(self):
        exact = iterate(LUCAS, 71)
        for k, want in enumerate(exact):
            got = binet2(LUCAS, k)
            assert round(got) == want
            assert abs(got - want) <= 1e-9 * max(1, abs(want))

    def test_wrong_order(self):
        with pytest.raises(ArityMismatch):
            binet2(TRIB, 3)

    def test_degenerate(self):
        with pytest.raises(DegenerateRoots):
            binet2(Recurrence((-1, 2), (0, 1)), 5)

    def test_complex_roots_give_real_terms(self):
        rec = Recurrence((-2, 1), (1, 1))
        exact = iterate(rec, 25)
        for k, want in enumerate(exact):
            assert abs(binet2(rec, k) - want) <= 1e-9 * max(1, abs(want))


class TestBinet3:
    def test_tribonacci(self):
        exact = iterate(TRIB, 51)
        for k, want in enumerate(exact):
            got = binet3(TRIB, k)
            assert abs(got - want) <= 1e-8 * max(1, abs(want))
        assert round(binet3(TRIB, 10)) == 149

    def test_tri_lucas(self):
        exact = iterate(TRI_LUCAS, 51)
        for k, want in enumerate(exact):
            got = binet3(TRI_LUCAS, k)
            assert abs(got - want) <= 1e-8 * max(1, abs(want))
        assert round(binet3(TRI_LUCAS, 6)) == 39

    def test_large_constant_term(self):
        # x^3 = x + 1e6: |A| >> |B|^(3/2), one real root near 100
        rec = Recurrence((1000000, 1, 0), (0, 0, 1))
        # small terms such as x_6 = 1 are sums of powers of modulus ~100^6, so
        # they carry absolute errors ~4e-8, as verify reports
        exact = iterate(rec, 9)
        for k, want in enumerate(exact):
            assert abs(binet3(rec, k) - want) <= 1e-6 * max(1, abs(want))
        assert abs(m_form(rec).evaluate(5) - exact[5]) <= 1e-6 * exact[5]
        assert cmath.isfinite(component(rec, "A", 5))
        report = verify(rec, 100)  # answers, with passed=False at rel_tol 1e-8
        assert set(report.paths) == {"weights", "binet3", "m_form"}

    def test_negative_resolvent_cubes_keep_the_labelling(self):
        # x^3 = x - 1: both resolvent cubes are negative reals; component A is
        # tied to sigma1, the principal cube root of y1
        rec = Recurrence((-1, 1, 0), (0, 0, 1))
        want = (0.05940988917756476 - 0.10290094652757838j,
                -0.0068655665770674884 + 0.011891510134227687j,
                0.05940988917756461 - 0.10290094652757852j)
        for k, w in enumerate(want, 1):
            assert abs(component(rec, "A", k) - w) <= 1e-12

    def test_wrong_order(self):
        with pytest.raises(ArityMismatch):
            binet3(FIB, 3)

    def test_degenerate(self):
        with pytest.raises(DegenerateRoots):
            binet3(Recurrence((0, 0, 0), (1, 2, 3)), 4)


class TestMForm:
    def test_fibonacci_coefficients(self):
        mf = m_form(FIB)
        assert mf.order == 2
        assert mf.coefficients[0] == 0j          # x0/2
        assert abs(mf.coefficients[1] - 1 / SQRT5) < 1e-12
        assert abs(mf.evaluate(10) - 55) < 1e-9

    def test_lucas_coefficients(self):
        mf = m_form(LUCAS)
        assert abs(mf.coefficients[0] - 1) < 1e-12   # x0/2 = 1
        assert abs(mf.coefficients[1]) < 1e-12
        assert abs(mf.evaluate(10) - 123) < 1e-9

    def test_tribonacci_reproduces_sequence(self):
        mf = m_form(TRIB)
        exact = iterate(TRIB, 51)
        for k, want in enumerate(exact):
            assert abs(mf.evaluate(k) - want) <= 1e-8 * max(1, abs(want))

    def test_tetranacci_reproduces_sequence(self):
        mf = m_form(TETRA)
        exact = iterate(TETRA, 41)
        for k, want in enumerate(exact):
            assert abs(mf.evaluate(k) - want) <= 1e-8 * max(1, abs(want))

    def test_signature_shapes(self):
        mf = m_form(TETRA)
        assert len(mf.signatures) == 4
        assert all(len(sig) == 4 for sig in mf.signatures)
        assert len(mf.coefficients) == 4
        assert len(mf.roots) == 4

    def test_binet2_is_the_order2_form_bitwise(self):
        rng = random.Random(606)
        checked = 0
        while checked < 200:
            rec = random_integral(rng, 2)
            try:
                mf = m_form(rec)
            except DomainError:
                continue
            for k in (0, 1, 2, 7, 30, 90):
                assert binet2(rec, k).hex() == mf.evaluate(k).hex(), (rec, k)
            checked += 1

    def test_rows_come_from_the_order(self):
        for rec in (FIB, TRIB, TETRA):
            assert m_form(rec).signatures is CHAIN_ROWS[rec.order]

    def test_repr_is_stable(self):
        # pinned: seeded sweeps compare this repr across versions of the code
        assert repr(m_form(FIB)) == (
            "MForm(order=2, coefficients=(0j, (0.4472135954999579+0j)), "
            "signatures=((Rotor(num=0, den=1), Rotor(num=0, den=1)), "
            "(Rotor(num=0, den=1), Rotor(num=1, den=2))), "
            "roots=((1.618033988749895+0j), (-0.6180339887498949+0j)))"
        )
        assert repr(m_form(TRIB)) == (
            "MForm(order=3, coefficients=((-2.7628876743060948e-33-3.732881970141441e-17j), "
            "(0.28261655416012327+1.3333326834748665e-16j), "
            "(0.053611562834817904-9.424143792245034e-17j)), "
            "signatures=((Rotor(num=0, den=1), Rotor(num=0, den=1), Rotor(num=0, den=1)), "
            "(Rotor(num=0, den=1), Rotor(num=1, den=3), Rotor(num=2, den=3)), "
            "(Rotor(num=0, den=1), Rotor(num=2, den=3), Rotor(num=1, den=3))), "
            "roots=((1.839286755214161+0j), (-0.4196433776070809-0.606290729207199j), "
            "(-0.4196433776070805+0.6062907292071993j)))"
        )

    def test_equality_ignores_root_weights(self):
        mf = m_form(TRIB)
        twin = MForm(mf.order, mf.coefficients, mf.roots)
        assert twin == mf
        assert twin.root_weights == mf.root_weights
        object.__setattr__(twin, "root_weights", (0j, 0j, 0j))
        assert twin == mf
        assert MForm(mf.order, mf.coefficients[::-1], mf.roots) != mf

    def test_agrees_with_weights_path(self):
        rng = random.Random(777)
        checked = 0
        while checked < 30:
            rec = random_integral(rng, rng.randint(2, 4))
            try:
                form = solve_weights(rec)
                mf = m_form(rec)
            except DomainError:
                continue
            for k in (0, 5, 12, 20):
                a = closed_term(form, k).value
                b = mf.evaluate(k)
                assert abs(a - b) <= 1e-6 * max(1.0, abs(a))
            checked += 1

    @pytest.mark.parametrize("order", [1, 5])
    def test_constructor_refuses_an_order_without_chain_rows(self, order):
        with pytest.raises(UnsupportedDegree):
            MForm(order, (1,) * order, (1,) * order)

    @pytest.mark.parametrize("coefficients, roots", [
        ((1,), (1, 2)),
        ((1, 2), (1,)),
        ((1, 2, 3), (1, 2)),
    ])
    def test_constructor_refuses_a_tuple_of_the_wrong_length(self, coefficients, roots):
        with pytest.raises(ArityMismatch):
            MForm(2, coefficients, roots)

    def test_unsupported_orders(self):
        with pytest.raises(UnsupportedDegree):
            m_form(Recurrence((2,), (1,)))
        with pytest.raises(UnsupportedDegree):
            m_form(Recurrence((1, 0, 0, 0, 1), (0, 1, 2, 3, 4)))

    def test_degenerate(self):
        with pytest.raises(DegenerateRoots):
            m_form(Recurrence((-1, 2), (0, 1)))


class TestComponents:
    def test_order2_components_are_fib_and_lucas(self):
        fib_seq = iterate(FIB, 21)
        lucas_seq = iterate(LUCAS, 21)
        for k in range(21):
            assert abs(component(FIB, "F", k) - fib_seq[k]) < 1e-9
            assert abs(component(FIB, "L", k) - lucas_seq[k]) < 1e-9

    def test_order3_symmetric_component(self):
        tl = iterate(TRI_LUCAS, 21)
        for k in range(21):
            assert abs(component(TRIB, "C", k) - tl[k]) < 1e-8 * max(1, abs(tl[k]))

    def test_order3_signed_components_at_one(self):
        res = cubic_resolvents(1, 1, 1)
        s1, s2 = res.sigmas
        d = s1 ** 3 - s2 ** 3
        assert abs(component(TRIB, "A", 1) - s2 / d) < 1e-10
        assert abs(component(TRIB, "B", 1) - s1 / d) < 1e-10

    def test_wrong_order(self):
        with pytest.raises(ArityMismatch):
            component(TRIB, "F", 2)
        with pytest.raises(ArityMismatch):
            component(FIB, "A", 2)
        with pytest.raises(ArityMismatch):
            component(FIB, "X", 2)

    def test_degenerate(self):
        with pytest.raises(DegenerateRoots):
            component(Recurrence((-1, 2), (0, 1)), "F", 3)


class TestVerify:
    def test_fibonacci(self):
        report = verify(FIB, 70, 1e-8)
        assert report.passed
        assert set(report.paths) == {"weights", "binet2", "m_form"}
        assert all(p.max_rel_err <= 1e-12 for p in report.paths.values())

    def test_tribonacci(self):
        report = verify(TRIB, 50, 1e-8)
        assert report.passed
        assert set(report.paths) == {"weights", "binet3", "m_form"}

    def test_tetranacci(self):
        report = verify(TETRA, 40, 1e-8)
        assert report.passed
        assert set(report.paths) == {"weights", "m_form"}

    def test_order_five_weights_only(self):
        rec = Recurrence((1, 0, 0, 1, 1), (0, 1, 2, 3, 4))
        report = verify(rec, 20, 1e-6)
        assert set(report.paths) == {"weights"}
        assert report.passed

    def test_propagates_solver_errors(self):
        with pytest.raises(DegenerateRoots):
            verify(Recurrence((-1, 2), (0, 1)), 10, 1e-8)

    def test_order3_solves_the_cubic_once_per_path(self, monkeypatch):
        calls = []
        original = rotorcalc.roots.cubic_resolvents

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(rotorcalc.roots, "cubic_resolvents", counted)
        cubic_roots(*TRIB.coeffs)
        solve_weights(TRIB)
        m_form(TRIB)
        for k in (1, 10, 100, 1000):
            binet3(TRIB, k)
        report = verify(TRIB, 50, 1e-8)
        assert report.passed
        # the roots, weights, binet3 and m_form paths all read one remembered solve
        assert len(calls) == 1
        calls.clear()
        assert verify(TRIB, 50, 1e-8) == report
        assert calls == []

    @pytest.mark.parametrize("rec, roots, steps", [
        (FIB, lambda c: quadratic_roots(*c), {"sqrt": 1}),
        (TETRA, lambda c: numeric_roots(CharPoly(4, c)), {"exp": 4}),
    ], ids=["order2", "order4"])
    def test_a_first_seen_request_solves_once(self, monkeypatch, rec, roots, steps):
        # the steps only a real solve takes: one square root of the quadratic
        # discriminant, one exp per Durand-Kerner start point
        counts = Counter()

        def counted(name):
            def call(*args):
                counts[name] += 1
                return getattr(cmath, name)(*args)
            return call
        solver_cmath = SimpleNamespace(**{**vars(cmath), "sqrt": counted("sqrt"),
                                          "exp": counted("exp")})
        monkeypatch.setattr(rotorcalc.roots, "cmath", solver_cmath)
        roots(rec.coeffs)
        form = solve_weights(rec)
        mform = m_form(rec)
        for k in (1, 10, 100, 1000):
            closed_term(form, k)
            mform.evaluate(k)
            if rec.order == 2:
                binet2(rec, k)
                component(rec, "F", k)
                component(rec, "L", k)
        report = verify(rec, 50, 1e-8)
        assert report.passed
        assert counts == steps
        counts.clear()
        assert verify(rec, 50, 1e-8) == report
        assert counts == {}

    def test_checks_the_forms_without_snapping_terms(self, monkeypatch):
        calls = []
        original = rotorcalc.binet.closed_term

        def counted(*args):
            calls.append(args)
            return original(*args)
        monkeypatch.setattr(rotorcalc.binet, "closed_term", counted)
        for rec in (FIB, TRIB, TETRA, Recurrence((1, 0, 0, 1, 1), (0, 1, 2, 3, 4))):
            assert verify(rec, 20, 1e-6).passed
        assert calls == []

    def test_failing_tolerance_reports_false(self):
        report = verify(FIB, 70, 1e-18)
        assert not report.passed
        assert not all(p.passed for p in report.paths.values())

    def test_path_agreement_random(self):
        rng = random.Random(140)
        checked = 0
        attempts = 0
        while checked < 60 and attempts < 600:
            attempts += 1
            rec = random_integral(rng, rng.randint(2, 4))
            try:
                report = verify(rec, 25, 1e-6)
            except DomainError:
                continue
            assert report.passed, (rec.coeffs, rec.seeds,
                                   {n: p.max_rel_err for n, p in report.paths.items()})
            checked += 1
        assert checked >= 60


def _verified_forms(rec):
    """The forms verify checks for rec, as in verify."""
    forms = [solve_weights(rec)]
    if rec.order in (2, 3):
        forms.append(_seed_form(rec, rec.order))
    forms.append(m_form(rec))
    return forms


def _hex(value):
    if isinstance(value, complex):
        return value.real.hex(), value.imag.hex()
    return value.hex()


class TestBatchedPass:
    def test_terms_are_evaluate_bitwise(self):
        rng = random.Random(2718)
        checked = 0
        while checked < 150:
            draw = random_integral if checked % 2 else random_quarter
            rec = draw(rng, 2 + checked % 3)
            try:
                forms = _verified_forms(rec)
            except DomainError:
                continue
            kmax = rng.randint(0, 200)
            table = PowerTable(kmax)  # shared by every form, as in verify
            for form in forms:
                batched = [_hex(v) for v in form.terms(table)]
                assert batched == [_hex(form.evaluate(k)) for k in range(kmax + 1)], (rec, form)
            checked += 1

    def test_terms_overflow_at_the_same_k_as_evaluate(self):
        rec = Recurrence((3, 2), (2, -2))
        for form in _verified_forms(rec):
            with pytest.raises(TermOverflow) as single:
                for k in range(701):
                    form.evaluate(k)
            with pytest.raises(TermOverflow) as batched:
                list(form.terms(PowerTable(700)))
            assert str(batched.value) == str(single.value)

    def test_verify_overflow_in_a_zero_weight_root(self):
        # x_k = 2(-1)^k; the weight on the root 3 is 0, but 3^647 leaves float range
        with pytest.raises(TermOverflow, match=r"at k=647 is beyond float range"):
            verify(Recurrence((3, 2), (2, -2)), 700)
        assert verify(Recurrence((3, 2), (2, -2)), 640).passed

    def test_rows_are_shared_by_root_value(self):
        table = PowerTable(5)
        assert table.row(1.5 + 0j) is table.row(complex(1.5, 0.0))
        assert table.row(1.5 + 0j) == [(1.5 + 0j) ** k for k in range(6)]
        assert table.row(complex(-0.0, 0.0)) is not table.row(0j)
        assert table.row(2.0) is not table.row(2 + 0j)

    def test_verify_evaluates_no_form_term_by_term(self, monkeypatch):
        def refuse(self, k):
            raise AssertionError("verify called evaluate")
        monkeypatch.setattr(rotorcalc.binet.MForm, "evaluate", refuse)
        monkeypatch.setattr(rotorcalc.binet.BinetForm, "evaluate", refuse)
        for rec in (FIB, TRIB, TETRA):
            assert verify(rec, 40, 1e-8).passed


def _verify_outcome(rec, kmax):
    """verify's report, or the class and text of its refusal."""
    try:
        return verify(rec, kmax)
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)


def _block_cases():
    rng = random.Random(1515)
    cases = []
    for i in range(48):
        draw = random_integral if i % 2 else random_quarter
        cases.append((draw(rng, 1 + i % 4), rng.randint(0, 300)))
    return cases


class TestVerifyBlocks:
    """verify walks k in blocks of _BLOCK; every block length gives the
    reports and refusals of a single block."""

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_length_does_not_change_the_outcome(self, monkeypatch, block):
        cases = _block_cases()
        whole = [_verify_outcome(rec, kmax) for rec, kmax in cases]
        monkeypatch.setattr(rotorcalc.binet, "_BLOCK", block, raising=False)
        for (rec, kmax), want in zip(cases, whole):
            got = _verify_outcome(rec, kmax)
            assert got == want and repr(got) == repr(want), (rec, kmax)

    @pytest.mark.parametrize("block", [100, None])
    @pytest.mark.parametrize("rec, kmax, message", [
        # x_k = 2^k: the weight-0 root 3 leaves float range at k=647, the
        # exact terms at k=1024; the exact overflow is reported first
        (Recurrence((-6, 5), (1, 2)), 1100, "an exact value is beyond float range"),
        (Recurrence((-6, 5), (1, 2)), 700, "the closed-form term at k=647 is beyond float range"),
        # x_k = 2(-1)^k, the weight-0 root 3 again
        (Recurrence((3, 2), (2, -2)), 700, "the closed-form term at k=647 is beyond float range"),
    ])
    def test_overflow_refusals(self, monkeypatch, block, rec, kmax, message):
        if block is not None:
            monkeypatch.setattr(rotorcalc.binet, "_BLOCK", block, raising=False)
        assert _verify_outcome(rec, kmax) == (TermOverflow, message)

    def test_memory_does_not_grow_with_kmax(self, monkeypatch):
        monkeypatch.setattr(rotorcalc.binet, "_BLOCK", 256, raising=False)
        rec = Recurrence((-1, 0), (1, 0))  # roots +-i: bounded terms at every k
        verify(rec, 1)  # the forms are solved and remembered before measuring

        def peak(kmax):
            tracemalloc.start()
            try:
                assert verify(rec, kmax).passed
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        small, large = peak(8 * 256), peak(32 * 256)
        assert large <= 1.25 * small, (small, large)


class TestHomogeneityConstant:
    def test_constant_weight_is_zero_without_root_at_one(self):
        rng = random.Random(88)
        checked = 0
        while checked < 100:
            rec = random_integral(rng, rng.randint(2, 4))
            try:
                form = solve_weights(rec)
            except DomainError:
                continue
            if any(abs(r - 1) < 1e-3 for r in form.roots.roots):
                continue
            seeds_scale = max(abs(float(x)) for x in iterate(rec, rec.order + 1))
            weight_scale = max(abs(w) for w in form.weights[:-1])
            scale = 1.0 + seeds_scale + weight_scale
            assert abs(form.weights[-1]) <= 1e-9 * scale
            checked += 1


class TestRepeatedRootChains:
    def test_lucas_chain_on_double_root(self):
        # (x-1)^2: no divisor in r1^k + r2^k, so it still answers
        assert component(Recurrence((-1, 2), (0, 1)), "L", 3) == 2

    def test_symmetric_chain_on_double_root(self):
        # (x-1)^2 (x+1): r1^k + r2^k + r3^k = 2 + (-1)^k
        rec = Recurrence((-1, 1, 1), (0, 1, 2))
        for k in (3, 4):
            assert abs(component(rec, "C", k) - (2 + (-1) ** k)) < 1e-9


# Integral cubics with a double root, where rounding leaves D = sigma1^3 - sigma2^3
# near 0 but not at it: the exact discriminant A^2 - 4 B^3 is 0.
DOUBLE_ROOT_CUBICS = {
    "(x-1)^2(x+1)": (-1, 1, 1),
    "(x-2)^2(x+1)": (-4, 0, 3),
    "x(x-1)^2": (0, -1, 2),
    "(x-0.5)^2(x+1)": (-0.25, 0.75, 0),
}


class TestExactRepeatedRoots:
    @pytest.mark.parametrize("coeffs", DOUBLE_ROOT_CUBICS.values(), ids=DOUBLE_ROOT_CUBICS)
    def test_binet3_refuses(self, coeffs):
        with pytest.raises(DegenerateRoots):
            binet3(Recurrence(coeffs, (0, 1, 2)), 30)

    @pytest.mark.parametrize("coeffs", DOUBLE_ROOT_CUBICS.values(), ids=DOUBLE_ROOT_CUBICS)
    def test_divided_components_refuse(self, coeffs):
        rec = Recurrence(coeffs, (0, 1, 2))
        for kind in "AB":
            with pytest.raises(DegenerateRoots):
                component(rec, kind, 30)
        assert cmath.isfinite(component(rec, "C", 30))

    def test_integral_floats_are_tested_exactly(self):
        with pytest.raises(DegenerateRoots):
            binet3(Recurrence((-1.0, 1.0, 1.0), (0, 1, 2)), 30)

    @pytest.mark.parametrize("coeffs", DOUBLE_ROOT_CUBICS.values(), ids=DOUBLE_ROOT_CUBICS)
    def test_fractional_seeds_are_refused_too(self, coeffs):
        # the discriminant depends on the coefficients alone
        rec = Recurrence(coeffs, (0, 0, 0.5))
        assert not rec.integral
        with pytest.raises(DegenerateRoots, match=r"repeated root: D = sigma1\^3 - sigma2\^3 = 0"):
            binet3(rec, 30)
        for kind in "AB":
            with pytest.raises(DegenerateRoots):
                component(rec, kind, 5)
        with pytest.raises(DegenerateRoots, match="repeated root: sigma1 = 0"):
            binet2(Recurrence((-1, 2), (0, 0.5)), 30)

    def test_double_root_quadratic_refuses(self):
        # (x-1)^2: c1^2 + 4 c0 = 0
        rec = Recurrence((-1, 2), (0, 1))
        with pytest.raises(DegenerateRoots):
            binet2(rec, 30)
        with pytest.raises(DegenerateRoots):
            component(rec, "F", 30)

    def test_near_double_root_still_answers(self):
        # x^3 = x^2 + x - 0.999...: distinct roots, so not refused
        rec = Recurrence((-0.999, 1, 1), (0, 1, 2))
        want = iterate(rec, 11)[10]
        assert abs(binet3(rec, 10) - want) <= 1e-6 * max(1, abs(want))


class TestTermOverflow:
    def test_is_a_domain_error(self):
        assert issubclass(TermOverflow, DomainError)

    def test_closed_term(self):
        with pytest.raises(TermOverflow):
            closed_term(solve_weights(FIB), 2000)

    def test_binet2(self):
        with pytest.raises(TermOverflow):
            binet2(FIB, 2000)

    def test_binet3(self):
        with pytest.raises(TermOverflow):
            binet3(TRIB, 2000)

    def test_component(self):
        with pytest.raises(TermOverflow):
            component(FIB, "F", 2000)
        with pytest.raises(TermOverflow):
            component(TRIB, "C", 2000)

    def test_solve_weights_order2_coefficient_beyond_float_range(self):
        # c1 * c1 is an exact int past float range
        with pytest.raises(TermOverflow):
            solve_weights(Recurrence((1, 10 ** 160), (0, 1)))

    def test_solve_weights_order3_coefficient_beyond_float_range(self):
        # c2 ** 3 is an exact int past float range
        with pytest.raises(TermOverflow):
            solve_weights(Recurrence((1, 1, 10 ** 110), (0, 0, 1)))

    def test_solve_weights_numeric_roots_beyond_float_range(self):
        # Durand-Kerner's update is NaN; the roots and weights used to be NaN
        with pytest.raises(TermOverflow):
            solve_weights(Recurrence((1, 1, 1, 10 ** 100), (0, 0, 0, 1)))

    @pytest.mark.parametrize("call", [
        lambda: solve_weights(Recurrence((1, 1), (0, 10 ** 400))),
        lambda: m_form(Recurrence((1, 1, 1), (0, 0, 10 ** 400))),
        lambda: binet2(Recurrence((1, 1), (0, 10 ** 400)), 3),
        lambda: binet3(Recurrence((1, 1, 1), (0, 0, 10 ** 400)), 3),
        lambda: verify(Recurrence((1, 1), (0, 10 ** 400)), 3),
    ], ids=["solve_weights", "m_form", "binet2", "binet3", "verify"])
    def test_exact_seed_beyond_float_range(self, call):
        with pytest.raises(TermOverflow):
            call()

    def test_m_form_evaluate(self):
        mf = m_form(TETRA)
        with pytest.raises(TermOverflow):
            mf.evaluate(2000)

    def test_verify(self):
        with pytest.raises(TermOverflow):
            verify(FIB, 1600)

    def test_verify_reports_a_solver_error_ahead_of_an_exact_overflow(self):
        # (x-1)^2 with a seed past float range: the double root is reported
        with pytest.raises(DegenerateRoots):
            verify(Recurrence((-1, 2), (0, 10 ** 400)), 3)

    def test_verify_against_an_exact_term_beyond_float_range(self, monkeypatch):
        # a finite closed form compared with an exact int too large for a float
        def terms_with_huge_x10(rec):
            for k, x in enumerate(exact_terms(rec)):
                yield 10 ** 400 if k == 10 else x
        monkeypatch.setattr(rotorcalc.binet, "exact_terms", terms_with_huge_x10)
        with pytest.raises(TermOverflow):
            verify(FIB, 10)

    def test_finite_power_times_large_weight_is_refused(self):
        # 1e10^2 is finite; 1e300 * 1e20 is not, and raises no OverflowError
        with pytest.raises(TermOverflow):
            _power_sum((1e300 + 0j,), (1e10 + 0j,), 2)

    def test_last_terms_below_the_overflow_still_answer(self):
        # x_1474 of Fibonacci is about 1e307, inside float range
        assert binet2(FIB, 1474) > 1e307


def _outcome(fn, *args):
    """repr of fn's result, or the type and text of what it raised."""
    try:
        return repr(fn(*args))
    except (DomainError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _memo_calls(rec):
    """Every remembering function, and a few that go through them, on rec."""
    n, c = rec.order, rec.coeffs
    calls = [(root_analysis, c), (numeric_roots, CharPoly(n, c)), (solve_weights, rec),
             (m_form, rec)]
    if n == 2:
        calls += [(quadratic_roots, *c), (binet2, rec, 7)]
    if n == 3:
        calls += [(cubic_roots, *c), (binet3, rec, 7)]
    if n in (2, 3):
        calls.append((_seed_form, rec, n))
    return calls + [(verify, rec, 30)]


class TestMemo:
    def test_int_float_and_big_int_seeds_get_their_own_forms(self):
        recs = [FIB, Recurrence((1.0, 1.0), (0.0, 1.0)), Recurrence((1, 1), (0, 2 ** 60 + 1)),
                Recurrence((1, 1), (0, float(2 ** 60 + 1)))]
        remembered = [repr(solve_weights(rec)) for rec in recs]
        assert len(set(remembered)) == 4
        for rec, seen in zip(recs, remembered):
            clear_memos()
            assert repr(solve_weights(rec)) == seen
            assert solve_weights(rec).source.seeds == rec.seeds

    def test_degenerate_roots_are_refused_on_every_call(self):
        double = Recurrence((-1, 2), (0, 1))  # (x-1)^2
        messages = []
        for _ in range(3):
            with pytest.raises(DegenerateRoots) as err:
                solve_weights(double)
            messages.append(str(err.value))
        assert len(set(messages)) == 1

    def test_hits_are_repr_equal_to_fresh_solves(self):
        # orders 2-4 with integral, quarter-grid and mixed 0 / 0.0 / -0.0 /
        # 1 / 1.0 coefficients, each call once on a cleared memo and then
        # twice in a row with the memo kept
        # and each mixed one followed by its == twin of other reprs
        rng = random.Random(1111)
        mixed = (0, 0.0, -0.0, 1, 1.0, -1, -1.0, 2, 0.5, -0.25)
        twin = {"0": -0.0, "0.0": 0, "-0.0": 0.0, "1": 1.0, "1.0": 1, "-1": -1.0, "-1.0": -1}
        recs = []
        for i in range(90):
            order = 2 + i % 3
            if i % 3 == 0:
                recs.append(random_integral(rng, order))
            elif i % 3 == 1:
                recs.append(random_quarter(rng, order))
            else:
                rec = Recurrence(tuple(rng.choice(mixed) for _ in range(order)),
                                 tuple(rng.choice(mixed) for _ in range(order)))
                recs += [rec, Recurrence(*([twin.get(repr(v), v) for v in vs]
                                           for vs in (rec.coeffs, rec.seeds)))]
        calls = [call for rec in recs for call in _memo_calls(rec)]
        fresh = []
        for fn, *args in calls:
            clear_memos()
            fresh.append(_outcome(fn, *args))
        clear_memos()
        kept = [_outcome(fn, *args) for fn, *args in calls]
        again = [_outcome(fn, *args) for fn, *args in calls]
        assert kept == fresh
        assert again == fresh
        assert any(isinstance(outcome, tuple) for outcome in fresh)

    def test_one_seed_form_per_recurrence(self, monkeypatch):
        # m_form, binet2 and verify at order 2 share one stored MForm
        built = []
        init = MForm.__init__
        monkeypatch.setattr(MForm, "__init__",
                            lambda form, *args: built.append(args) or init(form, *args))
        form = m_form(FIB)
        ks = (0, 1, 10, 70)
        values = [binet2(FIB, k) for k in ks]
        assert verify(FIB, 30).passed
        assert len(built) == 1
        assert values == [form.evaluate(k) for k in ks]

    @pytest.mark.parametrize("rec, call, text", [
        (TRIB, lambda rec: binet2(rec, 3), "binet2 needs an order-2 recurrence"),
        (FIB, lambda rec: binet3(rec, 3), "binet3 needs an order-3 recurrence"),
        (TRIB, lambda rec: component(rec, "F", 2), "component F needs an order-2 recurrence"),
        (FIB, lambda rec: component(rec, "A", 2), "component A needs an order-3 recurrence"),
    ], ids=["binet2", "binet3", "component F", "component A"])
    def test_wrong_order_is_refused_with_a_stored_seed_form(self, rec, call, text):
        verify(rec, 10)  # stores rec's own seed form
        with pytest.raises(ArityMismatch) as err:
            call(rec)
        assert str(err.value) == text
