import cmath
import math
import random

import pytest

from helpers import OPSYMS, random_expr
from rotorcalc.errors import EvaluationError, LexError, ParseError
from rotorcalc.expr import (
    _MAX_NESTING,
    CONST_ROTORS,
    OPSYM_ROTORS,
    Chain,
    Const,
    Mul,
    Number,
    Pow,
    Rot,
    evaluate,
    format_expr,
    parse,
    tokenize,
)
from rotorcalc.unity import rotor_value


class TestTokenize:
    def test_kinds_and_spans(self):
        # every str.isspace() character is whitespace, "\x1c" (file separator) too
        for text in ("2 / 3", "2 /\x1c3"):
            toks = tokenize(text)
            assert [t.kind for t in toks] == ["number", "opsym", "number"], text
            assert [t.span for t in toks] == [(0, 1), (2, 3), (4, 5)], text
            assert [t.lexeme for t in toks] == ["2", "/", "3"], text

    def test_spans_slice_back_to_lexemes(self):
        for text in ("rot(1,3)*I^2", "1 _ 1 ~ 1 = 1", "2.5e-3 \\ 41*J", "(0 - 7)^3"):
            toks = tokenize(text)
            for t in toks:
                assert text[t.span[0]:t.span[1]] == t.lexeme
            rebuilt = "".join(t.lexeme for t in toks)
            assert rebuilt == text.replace(" ", "")

    def test_number_forms(self):
        assert [t.kind for t in tokenize("2.5")] == ["number"]
        assert [t.kind for t in tokenize("1e3")] == ["number"]
        assert [t.kind for t in tokenize("2.5e-3")] == ["number"]
        assert tokenize("007")[0].lexeme == "007"

    def test_every_opsym_lexes(self):
        for op in OPSYMS:
            tok = tokenize(f"1 {op} 2")[1]
            assert tok.kind == "opsym"
            assert tok.lexeme == op

    def test_unknown_character(self):
        for text in ("2 ? 3", "  ?"):
            with pytest.raises(LexError) as err:
                tokenize(text)
            assert err.value.span == (2, 3), text

    def test_unknown_name(self):
        with pytest.raises(LexError) as err:
            tokenize("2 + Kx")
        assert err.value.span == (4, 6)

    def test_non_ascii(self):
        with pytest.raises(LexError):
            tokenize("2 + α")

    def test_digit_that_is_not_a_decimal_digit(self):
        # "²".isdigit() is true, but the number pattern's \d does not match it
        with pytest.raises(LexError) as err:
            tokenize("²")
        assert str(err.value) == "unrecognized character '²' at 0..1"

    def test_decimal_digits_of_other_scripts_are_numbers(self):
        for text in ("٣+1", "٣ + 1"):
            assert [t.kind for t in tokenize(text)] == ["number", "opsym", "number"], text
        assert evaluate(parse("٣ + 1")) == 4


class TestParse:
    def test_bare_number(self):
        assert parse("2") == Number(2.0)
        assert parse("2.5e1") == Number(25.0)

    def test_chain(self):
        assert parse("2 / 3") == Chain((("+", Number(2.0)), ("/", Number(3.0))))
        assert parse("+2 / 3") == parse("2 / 3")

    def test_unary(self):
        assert parse("-5") == Chain((("-", Number(5.0)),))
        assert parse("+5") == Number(5.0)
        assert parse("~J") == Chain((("~", Const("J")),))

    def test_precedence(self):
        # ^ binds tighter than *, which binds tighter than chain symbols
        assert parse("1 / 2*3") == Chain(
            (("+", Number(1.0)), ("/", Mul((Number(2.0), Number(3.0)))))
        )
        assert parse("2*3^2") == Mul((Number(2.0), Pow(Number(3.0), 2)))
        assert parse("(1 / 2)*3") == Mul(
            (Chain((("+", Number(1.0)), ("/", Number(2.0)))), Number(3.0))
        )

    def test_rot_literal_kept_as_written(self):
        assert parse("rot(2,6)") == Rot(2, 6)
        assert parse("rot(-1, 3)") == Rot(-1, 3)
        assert parse("rot(1,-3)") == Rot(1, -3)

    def test_pow_signed_exponent(self):
        assert parse("I^-2") == Pow(Const("I"), -2)
        assert parse("i^+3") == Pow(Const("i"), 3)

    def test_mul_is_left_associative(self):
        # one flat Mul, multiplied left to right: (1e-300 * 1e-300) underflows
        assert parse("2*3*4") == Mul((Number(2.0), Number(3.0), Number(4.0)))
        assert evaluate(parse("1e-300*1e-300*1e300")) == 0j
        # a parenthesised product stays one factor
        assert parse("(2*3)*4") == Mul((Mul((Number(2.0), Number(3.0))), Number(4.0)))
        assert parse("2*(3*4)") == Mul((Number(2.0), Mul((Number(3.0), Number(4.0)))))
        assert parse("((2*3))") == Mul((Number(2.0), Number(3.0)))

    def test_errors_carry_spans(self):
        cases = {
            "2 *": (3, 3),        # dangling star, failure at end of input
            "2 3": (2, 3),        # trailing atom where an opsym must go
            "rot(1 3)": (6, 7),   # missing comma
            "(1": (2, 2),         # unclosed paren
            "^2": (0, 1),         # no atom before the caret
            "2^3.5": (2, 5),      # exponent must be an integer
        }
        for text, span in cases.items():
            with pytest.raises(ParseError) as err:
                parse(text)
            assert err.value.span == span, text
            assert str(err.value)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    @pytest.mark.parametrize("text, span", [
        ("2^" + "1" * 5000, (2, 5002)),
        ("2^-" + "1" * 5000, (3, 5003)),
        ("rot(" + "1" * 5000 + ",3)", (4, 5004)),
        ("rot(1," + "1" * 5000 + ")", (6, 5006)),
    ], ids=["exponent", "negative exponent", "rot numerator", "rot denominator"])
    def test_integer_literal_past_the_digit_limit(self, text, span):
        # Python refuses int() of a decimal string longer than 4300 digits
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"integer literal too long at {span[0]}..{span[1]}"
        assert err.value.span == span

    # n levels of one node type: a Chain per "-(", a Mul per "2*(", a Pow per ")^1"
    NESTED = {
        "chain": lambda n: "-(" * n + "1" + ")" * n,
        "mul": lambda n: "2*(" * (n - 1) + "2*2" + ")" * (n - 1),
        "pow": lambda n: "(" * n + "2" + ")^1" * n,
    }

    @pytest.mark.parametrize("nested", NESTED.values(), ids=NESTED)
    def test_nesting_at_the_cap_compares_and_prints(self, nested):
        text = nested(_MAX_NESTING)
        a, b = parse(text), parse(text)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert parse(format_expr(a)) == a
        assert cmath.isfinite(evaluate(a))

    @pytest.mark.parametrize("nested", NESTED.values(), ids=NESTED)
    def test_nesting_past_the_cap_is_refused(self, nested):
        text = nested(_MAX_NESTING + 1)
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"expression nests too deeply at {len(text)}..{len(text)}"

    def test_error_message_and_expected_kinds(self):
        cases = {
            "rot(1 3)": ("expected comma, found '3' at 6..7", {"comma"}),
            "(1": ("expected rparen, found 'end of input' at 2..2", {"rparen"}),
            # the end of input sits at the text's length, past trailing whitespace
            "(1  ": ("expected rparen, found 'end of input' at 4..4", {"rparen"}),
            "2 *": ("at 3..3", {"(", "I", "J", "i", "number", "rot"}),
        }
        for text, (tail, expected) in cases.items():
            with pytest.raises(ParseError) as err:
                parse(text)
            assert type(err.value) is ParseError, text
            assert str(err.value).endswith(tail), text
            assert err.value.expected == frozenset(expected), text

    def test_lex_error_is_a_parse_error_with_span_message(self):
        with pytest.raises(ParseError) as err:
            tokenize("2 + Kx")
        assert isinstance(err.value, LexError)
        assert str(err.value) == "unknown name 'Kx' at 4..6"
        assert err.value.expected == frozenset()


class TestEvaluate:
    def test_cube_root_identity(self):
        assert abs(evaluate(parse("1 / 1 \\ 1"))) <= 1e-14

    def test_quarter_identity_exact(self):
        assert evaluate(parse("1 _ 1 ~ 1 = 1")) == 0j

    def test_vector_sum_example(self):
        z = evaluate(parse("2 / 3"))
        assert abs(abs(z) - math.sqrt(7)) < 1e-12
        assert abs(z - complex(0.5, 3 * math.sqrt(3) / 2)) < 1e-12

    def test_chain_semantics_per_symbol(self):
        rng = random.Random(5150)
        for _ in range(200):
            a = rng.randint(0, 9)
            b = rng.randint(0, 9)
            op = rng.choice(OPSYMS)
            got = evaluate(parse(f"{a} {op} {b}"))
            want = a + rotor_value(OPSYM_ROTORS[op]) * b
            assert abs(got - want) < 1e-12

    def test_minus_equals_same_value_distinct_ast(self):
        assert evaluate(parse("1 = 2")) == evaluate(parse("1 - 2")) == -1 + 0j
        assert parse("1 = 2") != parse("1 - 2")

    def test_constants(self):
        for name, rotor in CONST_ROTORS.items():
            assert evaluate(parse(name)) == rotor_value(rotor)
        assert evaluate(parse("i^2")) == -1 + 0j
        assert abs(evaluate(parse("J^4")) + 1) < 1e-14
        assert abs(evaluate(parse("I^3")) + 1) < 1e-14

    def test_rot_literal(self):
        assert evaluate(parse("rot(1,2)")) == -1 + 0j
        assert evaluate(parse("rot(2,6)")) == evaluate(parse("rot(1,3)"))

    def test_mul_pow(self):
        assert evaluate(parse("2*3")) == 6 + 0j
        assert evaluate(parse("2^-1")) == 0.5 + 0j
        assert evaluate(parse("0^0")) == 1 + 0j
        assert evaluate(parse("(1 - 1)^2")) == 0j

    def test_zero_to_negative_power(self):
        with pytest.raises(EvaluationError):
            evaluate(parse("0^-1"))
        with pytest.raises(EvaluationError):
            evaluate(parse("(1 - 1)^-2"))


class TestFormat:
    def test_golden_strings(self):
        cases = {
            "2 / 3": "2 / 3",
            "  2/3  ": "2 / 3",
            "-5": "-5",
            "+5": "5",
            "(1/2)*3": "(1 / 2)*3",
            "I^2": "I^2",
            "rot(2,6)": "rot(2,6)",
            "2 * 3 ^ 2": "2*3^2",
            "1 _ 1 ~ 1 = 1": "1 _ 1 ~ 1 = 1",
            "((2))": "2",
            "(2^3)^4": "(2^3)^4",
            "I^-2": "I^-2",
            "2.5": "2.5",
        }
        for text, want in cases.items():
            assert format_expr(parse(text)) == want

    def test_integers_drop_the_point(self):
        assert format_expr(Number(3.0)) == "3"
        assert format_expr(Number(3.25)) == "3.25"

    def test_long_product_round_trip(self):
        # 6,000 factors in one flat Mul
        text = "*".join(["2", "(1 / 2)", "I^2"] * 2000)
        tree = parse(text)
        assert format_expr(tree) == text
        assert tree == Mul(tuple(parse(part) for part in text.split("*")))

    def test_ten_thousand_factors_compare_hash_and_print(self):
        # one flat Mul: ==, hash and repr do not recurse once per factor;
        # each group of four factors turns by pi/2 + 2pi/3 - pi/4 = 11pi/12
        text = "*".join(["rot(1,4)", "(2 = 1)", "I^2", "J^-1"] * 2500)
        tree, again = parse(text), parse(text)
        assert tree is not again and tree == again
        assert hash(tree) == hash(again)
        assert repr(tree) == repr(again)
        assert repr(tree).startswith("Mul(factors=(Rot(num=1, den=4), Chain(")
        assert format_expr(tree) == text
        assert parse(format_expr(tree)) == tree
        assert abs(evaluate(tree) - cmath.exp(2500j * 11 * math.pi / 12)) < 1e-9

    def test_parenthesised_products_keep_their_grouping(self):
        for text in ("(2*3)*4", "2*(3*4)", "(2*3)*(4*5)", "((2*3)*4)*5", "(2*3)^2*4"):
            assert format_expr(parse(text)) == text
        assert format_expr(parse("((2*3))")) == "2*3"

    @pytest.mark.parametrize("text", ["1e999", "2*1e999", "1e999 / 3", "(1e999)^2"])
    def test_infinite_number_round_trip(self, text):
        # parse makes an infinite Number; its text must parse back to it
        tree = parse(text)
        assert parse(format_expr(tree)) == tree

    def test_random_round_trip(self):
        rng = random.Random(20210)
        for _ in range(2000):
            tree = random_expr(rng, rng.randint(0, 4))
            text = format_expr(tree)
            reparsed = parse(text)
            assert reparsed == tree, text
            assert format_expr(reparsed) == text
            try:
                v1 = evaluate(tree)
                failed1 = None
            except EvaluationError:
                failed1 = True
            try:
                v2 = evaluate(reparsed)
                failed2 = None
            except EvaluationError:
                failed2 = True
            assert failed1 == failed2
            if failed1 is None:
                assert abs(v1 - v2) <= 1e-12 * max(1.0, abs(v1))
