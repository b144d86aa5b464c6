import collections
import json
import math
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rotorcalc
from rotorcalc.binet import closed_term, solve_weights
from rotorcalc.cli import main
from rotorcalc.expr import evaluate, parse
from rotorcalc.recurrence import Recurrence, iterate
from rotorcalc.unity import FAMILY_LABELS, REFERENCE_LABELS, label_rotor, rotor_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestEval:
    def test_vector_sum_example(self, capsys):
        code, payload, _ = run_json(capsys, "eval", "2 / 3")
        assert code == 0
        assert set(payload) == {"re", "im", "mod", "arg"}
        assert abs(payload["mod"] - math.sqrt(7)) < 1e-12
        assert abs(payload["arg"] - math.atan(3 * math.sqrt(3))) < 1e-12

    def test_identity_strings(self, capsys):
        for text in ("1 / 1 \\ 1", "1 _ 1 ~ 1 = 1"):
            code, payload, _ = run_json(capsys, "eval", text)
            assert code == 0
            assert abs(payload["re"]) <= 1e-14
            assert abs(payload["im"]) <= 1e-14

    def test_rotor_power_is_exact(self, capsys):
        # J^(10^20 - 1) is rot(7,8); a complex power of J's value lands 0.86 away
        code, payload, _ = run_json(capsys, "eval", "J^99999999999999999999")
        assert code == 0
        assert abs(payload["re"] - math.sqrt(0.5)) <= 1e-15
        assert abs(-payload["im"] - math.sqrt(0.5)) <= 1e-15

    def test_negative_power_of_an_underflowing_base(self, capsys):
        code, out, err = run(capsys, "eval", "1e-300^-2")
        assert code == 1
        assert out == ""
        assert err == "error: EvaluationError: power beyond float range\n"

    def test_arg_stays_in_half_open_range(self, capsys):
        code, payload, _ = run_json(capsys, "eval", "-1")
        assert code == 0
        assert payload["arg"] == math.pi

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "eval", "2 ? 3")
        assert code == 1
        assert out == ""
        assert "2..3" in err

    def test_superscript_digit_is_a_lex_error(self, capsys):
        code, out, err = run(capsys, "eval", "²")
        assert code == 1
        assert out == ""
        assert err == "error: LexError: unrecognized character '²' at 0..1\n"

    @pytest.mark.parametrize(
        "text", ["2^" + "1" * 5000, "rot(" + "1" * 5000 + ",3)"], ids=["exponent", "rot"]
    )
    def test_integer_literal_past_the_digit_limit(self, capsys, text):
        code, out, err = run(capsys, "eval", text)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ParseError: integer literal too long at ")

    def test_unbalanced(self, capsys):
        code, out, err = run(capsys, "eval", "(1 / 2")
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_deep_nesting_still_parses(self, capsys):
        code, payload, _ = run_json(capsys, "eval", "(" * 200 + "1" + ")" * 200)
        assert code == 0
        assert payload["re"] == 1.0

    def test_long_product_evaluates(self, capsys):
        # 5,000 factors in one flat Mul: evaluation must not recurse once per factor
        code, out, err = run(capsys, "eval", "*".join(["1"] * 5000))
        assert code == 0
        assert json.loads(out)["re"] == 1.0
        assert "Traceback" not in err

    @pytest.mark.parametrize("depth", [300, 3000])
    def test_too_deep_nesting_is_a_parse_error(self, capsys, depth):
        code, out, err = run(capsys, "eval", "(" * depth + "1" + ")" * depth)
        assert code == 1
        assert out == ""
        assert "ParseError" in err
        assert "Traceback" not in err


class TestRoots:
    def test_golden_ratio(self, capsys):
        code, payload, _ = run_json(capsys, "roots", "--coeffs", "1,1")
        assert code == 0
        assert payload["degree"] == 2
        assert payload["method"] == "closed2"
        assert abs(payload["roots"][0]["re"] - (1 + math.sqrt(5)) / 2) < 1e-10
        assert abs(payload["sigma1"]["re"] - math.sqrt(5)) < 1e-10
        assert all(r["residual"] < 1e-10 for r in payload["roots"])

    def test_cubic_block(self, capsys):
        code, payload, _ = run_json(capsys, "roots", "--coeffs", "1,1,1")
        assert code == 0
        assert payload["A"] == 38.0
        assert payload["B"] == 4.0
        assert abs(payload["sigma1"]["re"] - 3.3090564799660944) < 1e-10
        assert abs(payload["sigma2"]["re"] - 1.2088037856763885) < 1e-10

    def test_quartic_numeric(self, capsys):
        code, payload, _ = run_json(
            capsys, "roots", "--coeffs", "1,1,1,1", "--method", "numeric"
        )
        assert code == 0
        assert payload["method"] == "numeric"
        assert len(payload["roots"]) == 4
        assert abs(payload["roots"][0]["re"] - 1.92756198) < 1e-8

    def test_quartic_defaults_to_numeric(self, capsys):
        code, payload, _ = run_json(capsys, "roots", "--coeffs", "1,1,1,1")
        assert code == 0
        assert payload["method"] == "numeric"

    def test_closed_beyond_cubic_is_domain_error(self, capsys):
        code, out, err = run(capsys, "roots", "--coeffs", "1,1,1,1", "--method", "closed")
        assert code == 1
        assert out == ""
        assert "UnsupportedDegree" in err

    def test_bad_number(self, capsys):
        code, out, err = run(capsys, "roots", "--coeffs", "1,x")
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_empty_coefficients(self, capsys):
        code, out, err = run(capsys, "roots", "--coeffs=")
        assert code == 2
        assert out == ""
        assert "--coeffs entry '' is not a number" in err


class TestSolve:
    def test_fibonacci(self, capsys):
        code, payload, _ = run_json(
            capsys, "solve", "--coeffs", "1,1", "--seeds", "0,1"
        )
        assert code == 0
        assert abs(payload["weights"][0]["re"] - 1 / math.sqrt(5)) < 1e-10
        assert len(payload["weights"]) == 3
        assert len(payload["roots"]) == 2

    def test_root_at_one(self, capsys):
        code, out, err = run(capsys, "solve", "--coeffs", "0,1", "--seeds", "1,1")
        assert code == 1
        assert out == ""
        assert "SingularSystem" in err

    def test_length_mismatch(self, capsys):
        code, out, err = run(capsys, "solve", "--coeffs", "1,1", "--seeds", "1")
        assert code == 2
        assert "usage error" in err


class TestTerm:
    def test_fibonacci_ten(self, capsys):
        code, payload, _ = run_json(
            capsys, "term", "--coeffs", "1,1", "--seeds", "0,1", "-k", "10"
        )
        assert code == 0
        assert abs(payload["closed"]["re"] - 55) < 1e-9 * 55
        assert payload["nearest"] == 55
        assert payload["exact"] == 55

    def test_non_integral_omits_exact(self, capsys):
        code, payload, _ = run_json(
            capsys, "term", "--coeffs", "0.5,1", "--seeds", "1,1", "-k", "6"
        )
        assert code == 0
        assert "exact" not in payload
        assert "nearest" not in payload

    def test_negative_k(self, capsys):
        code, _, err = run(capsys, "term", "--coeffs", "1,1", "--seeds", "0,1", "-k=-2")
        assert code == 2
        assert "usage error" in err

    def test_k_past_maxsize_is_a_usage_error_when_integral(self, capsys):
        # the exact term would be iterated to, and islice takes no larger count
        code, out, err = run(capsys, "term", "--coeffs=-1,0", "--seeds=1,0", "-k", "100000000000000000000")
        assert code == 2
        assert out == ""
        assert err == f"usage error: -k must be below {sys.maxsize} for an integral recurrence\n"

    def test_k_past_maxsize_answers_when_not_integral(self, capsys):
        code, payload, _ = run_json(capsys, "term", "--coeffs=0.5,0", "--seeds=1,0", "-k", "100000000000000000000")
        assert code == 0
        assert payload["k"] == 10 ** 20
        assert "exact" not in payload

    def test_exact_term_memory_does_not_grow_with_k(self, capsys):
        # x_k has period 6, so the exact term is 0 at k = 300000; iterating to
        # it must hold O(order) terms, not all k + 1 of them
        argv = ["term", "--coeffs=-1,1", "--seeds=0,1", "-k", "300000"]
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        rec = Recurrence((-1, 1), (0, 1))
        term = closed_term(solve_weights(rec), 300000)
        assert payload == {
            "k": 300000,
            "closed": {"re": term.value.real, "im": term.value.imag},
            "nearest": term.nearest,
            "distance": term.distance,
            "exact": iterate(rec, 300001)[-1],
        }
        assert payload["exact"] == 0
        assert peak < 2 * 2 ** 20, peak


class TestSeq:
    def test_tri_lucas_csv(self, capsys):
        code, out, _ = run(
            capsys, "seq", "--coeffs", "1,1,1", "--seeds", "3,1,3",
            "--count", "7", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,value"
        assert lines[-1] == "6,39"
        assert len(lines) == 8
        assert all(len(line.split(",")) == 2 for line in lines)

    def test_json_terms(self, capsys):
        code, payload, _ = run_json(
            capsys, "seq", "--coeffs", "1,1", "--seeds", "0,1", "--count", "11"
        )
        assert code == 0
        terms = payload["terms"]
        assert terms[-1] == {"k": 10, "value": 55}
        assert all(isinstance(t["value"], int) for t in terms)

    def test_negative_count(self, capsys):
        code, out, err = run(capsys, "seq", "--coeffs", "1,1", "--seeds", "0,1", "--count=-1")
        assert code == 2
        assert out == ""
        assert err == "usage error: --count must be nonnegative\n"

    def test_count_past_maxsize(self, capsys):
        code, out, err = run(
            capsys, "seq", "--coeffs", "1,1", "--seeds", "0,1", "--count", str(sys.maxsize + 1)
        )
        assert code == 2
        assert out == ""
        assert err == f"usage error: --count must be at most {sys.maxsize}\n"

    def test_zero_count(self, capsys):
        code, payload, _ = run_json(
            capsys, "seq", "--coeffs", "1,1", "--seeds", "0,1", "--count", "0"
        )
        assert code == 0
        assert payload["terms"] == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_term_past_the_digit_limit(self, capsys, fmt):
        # 10^4399 has 4400 digits, past Python's int-to-str limit of 4300
        code, out, err = run(
            capsys, "seq", "--coeffs", "10", "--seeds", "1", "--count", "4400", "--format", fmt
        )
        assert code == 1
        assert out == ""
        assert "TermOverflow" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_float_term_past_float_range(self, capsys, fmt):
        # x_2 = -1.5e308, then x_3 = 1.5 x_1 + 1.5 x_2 = -3.75e308 leaves float range
        code, out, err = run(
            capsys, "seq", "--coeffs=1.5,1.5", "--seeds=0.5,-1e308", "--count", "8",
            "--format", fmt,
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: TermOverflow")


class TestVerify:
    def test_fibonacci_passes(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "--coeffs", "1,1", "--seeds", "0,1", "--kmax", "70"
        )
        assert code == 0
        assert payload["pass"] is True
        assert payload["tol"] == 1e-8
        assert set(payload["paths"]) == {"weights", "binet2", "m_form"}
        assert all(p["pass"] for p in payload["paths"].values())

    def test_tribonacci_passes(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "--coeffs", "1,1,1", "--seeds", "0,1,1", "--kmax", "50"
        )
        assert code == 0
        assert payload["pass"] is True

    def test_degenerate(self, capsys):
        code, out, err = run(
            capsys, "verify", "--coeffs=-1,2", "--seeds", "0,1", "--kmax", "10"
        )
        assert code == 1
        assert out == ""
        assert "DegenerateRoots" in err

    def test_negative_kmax(self, capsys):
        code, out, err = run(capsys, "verify", "--coeffs", "1,1", "--seeds", "0,1", "--kmax=-1")
        assert code == 2
        assert out == ""
        assert err == "usage error: --kmax must be nonnegative\n"

    def test_impossible_tolerance_fails(self, capsys):
        code, payload, _ = run_json(
            capsys, "verify", "--coeffs", "1,1", "--seeds", "0,1",
            "--kmax", "70", "--tol", "1e-18",
        )
        assert code == 1
        assert payload["pass"] is False


class TestTable:
    def test_r3_matches_reference(self, capsys):
        code, payload, _ = run_json(capsys, "table", "--group", "R3")
        assert code == 0
        assert payload["elements"] == ["+1", "/1", "\\1"]
        assert payload["products"] == [
            ["+1", "/1", "\\1"],
            ["/1", "\\1", "+1"],
            ["\\1", "+1", "/1"],
        ]
        assert all(payload["axioms"].values())

    def test_c3_not_closed(self, capsys):
        code, payload, _ = run_json(capsys, "table", "--group", "C3")
        assert code == 0
        assert payload["axioms"]["closure"] is False

    def test_union8(self, capsys):
        code, payload, _ = run_json(capsys, "table", "--group", "union8")
        assert code == 0
        assert payload["order"] == 8
        assert all(payload["axioms"].values())
        cells = {(m["row"], m["col"]) for m in payload["reference_mismatches"]}
        assert cells == {(2, 5), (2, 6), (2, 7), (3, 7), (6, 3)}
        for m in payload["reference_mismatches"]:
            assert m["printed"].endswith("I")
            assert m["computed"].endswith("J")

    def test_union3_clean(self, capsys):
        code, payload, _ = run_json(capsys, "table", "--group", "union3")
        assert code == 0
        assert payload["order"] == 6
        assert payload["reference_mismatches"] == []

    def test_csv_fixed_arity(self, capsys):
        code, out, _ = run(capsys, "table", "--group", "union8", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 9
        assert lines[0] == "*,+1,~1,_1,=1,+J,~J,_J,=J"
        assert all(len(line.split(",")) == 9 for line in lines)

    def test_unknown_group(self, capsys):
        code, out, err = run(capsys, "table", "--group", "R9")
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_labels_are_expressions(self):
        # a table label evaluates, as a chain expression, to the rotor it names
        labels = {
            label
            for text in [*FAMILY_LABELS.values(), *REFERENCE_LABELS.values()]
            for label in text.split()
        }
        assert {"+I", "=I", "~I"} <= labels  # the mixed cells of union8's reference
        for label in labels:
            assert abs(evaluate(parse(label)) - rotor_value(label_rotor(label))) <= 1e-15, label


class TestSigma:
    def test_order_three(self, capsys):
        code, payload, _ = run_json(capsys, "sigma", "--coeffs", "1,1,1")
        assert code == 0
        assert payload["degree"] == 3
        assert payload["A"] == 38.0
        assert payload["B"] == 4.0

    def test_order_two(self, capsys):
        code, payload, _ = run_json(capsys, "sigma", "--coeffs", "1,1")
        assert code == 0
        assert abs(payload["sigma1"]["re"] - math.sqrt(5)) < 1e-10

    def test_unsupported_order(self, capsys):
        code, out, err = run(capsys, "sigma", "--coeffs", "1,1,1,1")
        assert code == 2
        assert "usage error" in err


class TestDispatch:
    def test_no_arguments(self, capsys):
        assert main([]) == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["roots"]) == 2

    def test_payloads_are_strict_json(self, capsys):
        for argv in (
            ["eval", "1 / 2"],
            ["roots", "--coeffs", "1,1,1"],
            ["solve", "--coeffs", "1,1", "--seeds", "0,1"],
            ["term", "--coeffs", "1,1", "--seeds", "0,1", "-k", "5"],
            ["seq", "--coeffs", "1,1", "--seeds", "0,1", "--count", "5"],
            ["verify", "--coeffs", "1,1", "--seeds", "0,1", "--kmax", "10"],
            ["table", "--group", "union3"],
            ["sigma", "--coeffs", "1,1"],
        ):
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0
            json.loads(out)  # must not raise


def test_cli_import_loads_no_numpy():
    """The CLI's import footprint in an isolated interpreter with no site
    packages: none of numpy, dataclasses, inspect, typing, fractions, decimal
    or numbers is loaded."""
    src = str(Path(rotorcalc.__file__).resolve().parents[1])
    unwanted = ("numpy", "dataclasses", "inspect", "typing", "fractions", "decimal", "numbers")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import rotorcalc.cli; "
        f"print(' '.join(m for m in {unwanted!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON token {name}")


def strict_json(text):
    return json.loads(text, parse_constant=_refuse_constant)


class TestStrictJson:
    def test_non_finite_coefficient_is_usage_error(self, capsys):
        code, out, err = run(capsys, "roots", "--coeffs", "1,inf")
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_non_finite_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "solve", "--coeffs", "1,1", "--seeds", "0,nan")
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_overflowing_literal_is_usage_error(self, capsys):
        code, out, _ = run(capsys, "term", "--coeffs", "1e999,1", "--seeds", "0,1", "-k", "3")
        assert code == 2
        assert out == ""

    def test_non_finite_tolerance_is_usage_error(self, capsys):
        for tol in ("nan", "inf"):
            code, out, _ = run(
                capsys, "verify", "--coeffs", "1,1", "--seeds", "0,1",
                "--kmax", "10", "--tol", tol,
            )
            assert code == 2
            assert out == ""
        code, out, _ = run(capsys, "roots", "--coeffs", "1,1,1,1", "--tol", "nan")
        assert code == 2
        assert out == ""

    def test_degree_one_separation_is_null(self, capsys):
        code, out, _ = run(capsys, "roots", "--coeffs", "5")
        assert code == 0
        payload = strict_json(out)
        assert payload["min_separation"] is None
        assert abs(payload["roots"][0]["re"] - 5) < 1e-9

    def test_eval_beyond_float_range(self, capsys):
        for text in ("1e308*10", "10^400", "1e999"):
            code, out, err = run(capsys, "eval", text)
            assert code == 1
            assert out == ""
            assert "EvaluationError" in err

    def test_eval_rotor_denominator_past_float_range(self, capsys):
        code, out, _ = run(capsys, "eval", "rot(1,1" + "0" * 400 + ")")
        assert code == 0
        payload = strict_json(out)
        assert payload["re"] == 1.0 and payload["im"] == 0.0

    def test_term_beyond_float_range(self, capsys):
        code, out, err = run(capsys, "term", "--coeffs", "1,1", "--seeds", "0,1", "-k", "2000")
        assert code == 1
        assert out == ""
        assert "TermOverflow" in err

    def test_verify_beyond_float_range(self, capsys):
        code, out, err = run(
            capsys, "verify", "--coeffs", "1,1", "--seeds", "0,1", "--kmax", "1600"
        )
        assert code == 1
        assert out == ""
        assert "TermOverflow" in err

    def test_verify_overflow_in_a_zero_weight_root(self, capsys):
        # x_k = 2(-1)^k: the root 3 has weight 0, and 3^647 leaves float range
        code, out, err = run(
            capsys, "verify", "--coeffs", "3,2", "--seeds", "2,-2", "--kmax", "700"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: TermOverflow")
        assert "k=647 " in err

    def test_non_finite_result_is_refused(self, capsys):
        # finite inputs whose roots leave float range
        code, out, err = run(capsys, "roots", "--coeffs", "1e200,1e200")
        assert code == 1
        assert out == ""
        assert "TermOverflow" in err

    def test_overflow_inside_a_solver_is_a_domain_failure(self, capsys):
        code, out, err = run(capsys, "roots", "--coeffs", "1,1e200,1")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err


_ENTRIES = ["0", "1", "-1", "2", "3", "-3", "0.5", "-1.25", "2.75", "1e200", "1e-300",
            "nan", "inf", "-inf", "1e999", "", "x", "1,"]


def _number_list(rng):
    return ",".join(rng.choice(_ENTRIES) for _ in range(rng.randint(1, 4)))


def _sweep_argv(rng):
    cmd = rng.choice(["roots", "solve", "term", "verify", "eval"])
    if cmd == "eval":
        atoms = ["1", "2.5", "1e308", "1e999", "10", "I", "J", "i", "rot(1,3)", "(1 / 2)"]
        ops = [" + ", " - ", " / ", " \\ ", " _ ", " ~ ", " = ", "*"]
        text = rng.choice(atoms)
        for _ in range(rng.randint(0, 4)):
            text += rng.choice(ops) + rng.choice(atoms)
            if rng.random() < 0.2:
                text = f"({text})^{rng.choice([-3, 2, 40, 400])}"
        return [cmd, text]
    if cmd == "roots":
        argv = [cmd, "--coeffs", _number_list(rng)]
        if rng.random() < 0.3:
            argv += ["--method", rng.choice(["closed", "numeric"])]
        if rng.random() < 0.2:
            argv += ["--tol", rng.choice(["1e-10", "nan", "inf", "0.1"])]
        return argv
    coeffs = _number_list(rng)
    seeds = ",".join(rng.choice(_ENTRIES[:11]) for _ in coeffs.split(","))
    if rng.random() < 0.2:
        seeds = _number_list(rng)
    argv = [cmd, "--coeffs", coeffs, "--seeds", seeds]
    k = int(math.exp(rng.random() * math.log(5001))) - 1
    if cmd == "term":
        argv.append(f"-k={k if rng.random() < 0.95 else -k}")
    if cmd == "verify":
        argv.append(f"--kmax={k}")
        if rng.random() < 0.2:
            argv += ["--tol", rng.choice(["1e-6", "nan", "-inf", "1e999"])]
    return argv


def test_seeded_robustness_sweep(capsys):
    rng = random.Random(4242)
    codes = collections.Counter()
    for _ in range(300):
        argv = _sweep_argv(rng)
        code = main(argv)  # anything escaping fails the test
        out = capsys.readouterr().out
        assert code in (0, 1, 2), argv
        if code == 0:
            strict_json(out)
        elif out:
            strict_json(out)  # a failed verification still prints its report
        codes[code] += 1
    # the sweep exercises all three outcomes
    assert all(codes[c] > 0 for c in (0, 1, 2)), codes
