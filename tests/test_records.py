"""The value-record contract of every rotorcalc record type.

Each record is built from its fields by position or by keyword, compares,
hashes and prints its fields in declaration order, refuses assignment and
deletion, and keeps the exact repr text the library has always printed
(pinned below, one instance per type).
"""
import pytest

from rotorcalc import (
    THIRD, AxiomReport, BinetForm, CharPoly, MForm, PathCheck, Recurrence,
    ResolventSet, RootSet, RotatedTerm, Rotor, TermValue, VerifyReport, diff_reference,
    family_elements, multiplication_table, nth_roots, permutation_tables, tokenize,
)
from rotorcalc.expr import Chain, Const, Mul, Number, Pow, Rot
from rotorcalc.roots import RootAnalysis


def _root_set():
    return RootSet((2 + 0j, -1 + 0j), (0.0, 0.5), 3.0, "closed2")


# (factory, compared fields, pinned repr), one per record type
CASES = [
    (
        lambda: Rotor(-4, 6), ("num", "den"),
        "Rotor(num=1, den=3)",
    ),
    (
        lambda: RotatedTerm(THIRD, -2.0), ("rotor", "magnitude"),
        "RotatedTerm(rotor=Rotor(num=5, den=6), magnitude=2.0)",
    ),
    (
        lambda: AxiomReport(True, True, True, False),
        ("closure", "associativity", "identity", "inverses"),
        "AxiomReport(closure=True, associativity=True, identity=True, inverses=False)",
    ),
    (
        lambda: multiplication_table(nth_roots(2)), ("elements", "products", "axiom_report"),
        "GroupTable(elements=(Rotor(num=0, den=1), Rotor(num=1, den=2)), "
        "products=((0, 1), (1, 0)), axiom_report=AxiomReport(closure=True, "
        "associativity=True, identity=True, inverses=True))",
    ),
    (
        lambda: diff_reference(multiplication_table(family_elements("union8")), "union8")[0],
        ("row", "col", "printed", "computed"),
        "Discrepancy(row=2, col=5, printed=Rotor(num=1, den=6), computed=Rotor(num=1, den=8))",
    ),
    (
        lambda: tokenize(r"1 \ 1")[1], ("kind", "lexeme", "span"),
        "Token(kind='opsym', lexeme='\\\\', span=(2, 3))",
    ),
    (lambda: Number(1.5), ("value",), "Number(value=1.5)"),
    (lambda: Const("I"), ("name",), "Const(name='I')"),
    (lambda: Rot(-1, 3), ("num", "den"), "Rot(num=-1, den=3)"),
    (
        lambda: Mul((Number(2.0), Const("J"))), ("factors",),
        "Mul(factors=(Number(value=2.0), Const(name='J')))",
    ),
    (
        lambda: Pow(Const("i"), -2), ("base", "exponent"),
        "Pow(base=Const(name='i'), exponent=-2)",
    ),
    (
        lambda: Chain((("+", Number(1.0)), ("/", Rot(1, 4)))), ("items",),
        "Chain(items=(('+', Number(value=1.0)), ('/', Rot(num=1, den=4))))",
    ),
    (
        lambda: TermValue(55 + 0j, 55, 0.0), ("value", "nearest", "distance"),
        "TermValue(value=(55+0j), nearest=55, distance=0.0)",
    ),
    (
        lambda: BinetForm(_root_set(), (1 + 0j, 2j, 0j), Recurrence((2, 1), (3, 1))),
        ("roots", "weights", "source"),
        "BinetForm(roots=RootSet(roots=((2+0j), (-1+0j)), residuals=(0.0, 0.5), "
        "min_separation=3.0, method='closed2'), weights=((1+0j), 2j, 0j), "
        "source=Recurrence(coeffs=(2, 1), seeds=(3, 1), integral=True))",
    ),
    (
        lambda: MForm(2, (0.5 + 0j, 0.25 + 0j), (2 + 0j, -1 + 0j)),
        ("order", "coefficients", "signatures", "roots"),
        "MForm(order=2, coefficients=((0.5+0j), (0.25+0j)), signatures=((Rotor(num=0, den=1), "
        "Rotor(num=0, den=1)), (Rotor(num=0, den=1), Rotor(num=1, den=2))), "
        "roots=((2+0j), (-1+0j)))",
    ),
    (
        lambda: PathCheck(0.0, True), ("max_rel_err", "passed"),
        "PathCheck(max_rel_err=0.0, passed=True)",
    ),
    (
        lambda: VerifyReport(10, 1e-08, {"weights": PathCheck(0.5, False)}, False),
        ("kmax", "rel_tol", "paths", "passed"),
        "VerifyReport(kmax=10, rel_tol=1e-08, paths={'weights': PathCheck(max_rel_err=0.5, "
        "passed=False)}, passed=False)",
    ),
    (
        _root_set, ("roots", "residuals", "min_separation", "method"),
        "RootSet(roots=((2+0j), (-1+0j)), residuals=(0.0, 0.5), min_separation=3.0, "
        "method='closed2')",
    ),
    (
        lambda: RootAnalysis(_root_set(), (2 + 0j, -1 + 0j), (3 + 0j,), 3 + 0j),
        ("rootset", "labelled", "sigmas", "divisor"),
        "RootAnalysis(rootset=RootSet(roots=((2+0j), (-1+0j)), residuals=(0.0, 0.5), "
        "min_separation=3.0, method='closed2'), labelled=((2+0j), (-1+0j)), sigmas=((3+0j),), "
        "divisor=(3+0j))",
    ),
    (
        lambda: ResolventSet(3, (1 + 0j, 2j), 1.0, -2.0), ("degree", "sigmas", "A", "B"),
        "ResolventSet(degree=3, sigmas=((1+0j), 2j), A=1.0, B=-2.0)",
    ),
    (
        lambda: permutation_tables(2)[1], ("signature", "rows"),
        "PermutationTable(signature=(Rotor(num=0, den=1), Rotor(num=1, den=2)), "
        "rows=((0, 1), (1, 0)))",
    ),
    (
        lambda: Recurrence([1, 1], [0, 1.5]), ("coeffs", "seeds", "integral"),
        "Recurrence(coeffs=(1, 1), seeds=(0, 1.5), integral=False)",
    ),
    (lambda: CharPoly(2, (1, 1)), ("degree", "coeffs"), "CharPoly(degree=2, coeffs=(1, 1))"),
]
_IDS = [text.split("(")[0] for _, _, text in CASES]
# compared fields that are computed, not passed, and the count of trailing
# constructor arguments that have a default
_COMPUTED = {Recurrence: ("integral",), MForm: ("signatures",)}
_DEFAULTED = {TermValue: 2}


def _constructor_arguments(record, fields):
    computed = _COMPUTED.get(type(record), ())
    return {f: getattr(record, f) for f in fields if f not in computed}


def test_every_record_type_is_covered():
    assert len({type(factory()) for factory, _, _ in CASES}) == 23


@pytest.mark.parametrize("factory, fields, text", CASES, ids=_IDS)
def test_repr_is_pinned(factory, fields, text):
    assert repr(factory()) == text


@pytest.mark.parametrize("factory, fields, text", CASES, ids=_IDS)
def test_equal_twins(factory, fields, text):
    a, b = factory(), factory()
    assert a is not b
    assert a == b
    assert not a != b
    key = tuple(getattr(a, f) for f in fields)
    if isinstance(a, VerifyReport):  # its paths are a dict, so it is unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(key)


@pytest.mark.parametrize("factory, fields, text", CASES, ids=_IDS)
def test_other_types_are_not_equal(factory, fields, text):
    a = factory()
    assert a.__eq__(object()) is NotImplemented
    assert a != tuple(getattr(a, f) for f in fields)


@pytest.mark.parametrize("factory, fields, text", CASES, ids=_IDS)
def test_fields_cannot_be_assigned_or_deleted(factory, fields, text):
    a = factory()
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert repr(a) == text


@pytest.mark.parametrize("factory, fields, text", CASES, ids=_IDS)
def test_rebuilt_by_position_or_keyword(factory, fields, text):
    a = factory()
    kwargs = _constructor_arguments(a, fields)
    args = tuple(kwargs.values())
    mixed = dict(list(kwargs.items())[1:])
    for twin in (type(a)(*args), type(a)(**kwargs), type(a)(*args[:1], **mixed)):
        assert twin is not a
        assert twin == a
        assert repr(twin) == text


@pytest.mark.parametrize("factory, fields, text", CASES, ids=_IDS)
def test_wrong_arguments_raise_type_error(factory, fields, text):
    a = factory()
    cls = type(a)
    kwargs = _constructor_arguments(a, fields)
    args = tuple(kwargs.values())
    first = next(iter(kwargs))
    required = len(args) - _DEFAULTED.get(cls, 0)
    calls = [
        lambda: cls(*args[:required - 1]),  # one too few
        lambda: cls(*args, args[-1]),  # one too many
        lambda: cls(*args, unknown=1),
        lambda: cls(**kwargs, unknown=1),
        lambda: cls(*args, **{first: args[0]}),  # given twice
    ]
    if len(args) > 1:  # given twice, the last one missing: the count alone looks right
        calls.append(lambda: cls(*args[:-1], **{first: args[0]}))
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_computed_fields_are_not_init_arguments():
    with pytest.raises(TypeError):
        Recurrence((1, 1), (0, 1), True)
    with pytest.raises(TypeError):
        MForm(2, (0.5, 0.25), (2 + 0j, -1 + 0j), root_weights=(1, 1))
    with pytest.raises(TypeError):
        MForm(2, (0.5, 0.25), (2 + 0j, -1 + 0j), signatures=())


def test_term_value_defaults():
    assert TermValue(1.5j) == TermValue(1.5j, None, None)
