"""Command-line front end.

Exit codes: 0 on success, 1 for domain failures (solver errors, bad values,
values beyond float range, failed verification), 2 for usage failures
(unparseable flags, non-finite numbers, unknown names).  Standard output
carries only the payload (strict JSON by default, CSV where offered);
diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from itertools import islice

from .binet import closed_term, solve_weights, verify
from .errors import DomainError, EvaluationError, TermOverflow, UnsupportedDegree
from .expr import evaluate, parse
from .recurrence import CharPoly, Recurrence, exact_terms, iterate
from .roots import cubic_resolvents, cubic_roots, numeric_roots, quadratic_roots
from .unity import (
    FAMILY_ORDERS, REFERENCE_LABELS, REFERENCE_TABLES, diff_reference, family_elements,
    multiplication_table,
)


class _UsageError(Exception):
    pass


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _parse_numbers(text: str, flag: str):
    """Comma-separated finite reals; integer-looking entries stay integers so
    the exact-iteration path can see them."""
    out = []
    for raw in text.split(","):
        raw = raw.strip()
        try:
            out.append(int(raw))
        except ValueError:
            try:
                out.append(_finite_float(raw))
            except argparse.ArgumentTypeError as exc:
                raise _UsageError(f"{flag} entry {exc}") from None
    return out


def _recurrence(args) -> Recurrence:
    coeffs = _parse_numbers(args.coeffs, "--coeffs")
    seeds = _parse_numbers(args.seeds, "--seeds")
    if len(coeffs) != len(seeds):
        raise _UsageError(
            f"--coeffs has {len(coeffs)} entries but --seeds has {len(seeds)}"
        )
    return Recurrence(tuple(coeffs), tuple(seeds))


def _cplx(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _emit(payload):
    """Print strict JSON; a payload it cannot hold (a non-finite float, an
    integer past Python's digit limit) is refused instead."""
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise TermOverflow(f"the result cannot be printed as strict JSON: {exc}") from None
    print(text)


def cmd_eval(args) -> int:
    value = evaluate(parse(args.expr))
    if not cmath.isfinite(value):
        raise EvaluationError("the expression's value is beyond float range")
    arg = math.atan2(value.imag, value.real)
    if arg <= -math.pi:
        arg = math.pi
    _emit({"re": value.real, "im": value.imag, "mod": abs(value), "arg": arg})
    return 0


def _sigma_block(coeffs) -> dict:
    if len(coeffs) == 2:
        _, sigma1 = quadratic_roots(coeffs[0], coeffs[1])
        return {"sigma1": _cplx(sigma1)}
    res = cubic_resolvents(coeffs[0], coeffs[1], coeffs[2])
    return {
        "A": res.A,
        "B": res.B,
        "sigma1": _cplx(res.sigmas[0]),
        "sigma2": _cplx(res.sigmas[1]),
    }


def _root_list(rs) -> list:
    return [{"re": r.real, "im": r.imag, "residual": res} for r, res in zip(rs.roots, rs.residuals)]


def cmd_roots(args) -> int:
    coeffs = _parse_numbers(args.coeffs, "--coeffs")
    n = len(coeffs)
    method = args.method or ("closed" if n in (2, 3) else "numeric")
    if method == "closed":
        if n == 2:
            rs, _ = quadratic_roots(coeffs[0], coeffs[1])
        elif n == 3:
            rs = cubic_roots(coeffs[0], coeffs[1], coeffs[2])
        else:
            raise UnsupportedDegree(f"closed forms cover degrees 2-3, not {n}")
    else:
        rs = numeric_roots(CharPoly(n, tuple(coeffs)), args.tol)
    payload = {
        "degree": n,
        "method": rs.method,
        "roots": _root_list(rs),
        "min_separation": rs.min_separation if n > 1 else None,
    }
    if n in (2, 3):
        payload.update(_sigma_block(coeffs))
    _emit(payload)
    return 0


def cmd_solve(args) -> int:
    rec = _recurrence(args)
    form = solve_weights(rec)
    _emit({
        "order": rec.order,
        "method": form.roots.method,
        "roots": _root_list(form.roots),
        "weights": [_cplx(w) for w in form.weights],
    })
    return 0


def cmd_term(args) -> int:
    rec = _recurrence(args)
    if args.k < 0:
        raise _UsageError("-k must be nonnegative")
    if args.k >= sys.maxsize and rec.integral:  # islice skips at most that many
        raise _UsageError(f"-k must be below {sys.maxsize} for an integral recurrence")
    term = closed_term(solve_weights(rec), args.k)
    payload = {"k": args.k, "closed": _cplx(term.value)}
    if term.nearest is not None:
        payload["nearest"] = term.nearest
        payload["distance"] = term.distance
    if rec.integral:
        payload["exact"] = next(islice(exact_terms(rec), args.k, None))  # O(order) terms held
    _emit(payload)
    return 0


def cmd_seq(args) -> int:
    rec = _recurrence(args)
    if args.count < 0:
        raise _UsageError("--count must be nonnegative")
    if args.count > sys.maxsize:  # iterate's islice takes at most that many
        raise _UsageError(f"--count must be at most {sys.maxsize}")
    values = iterate(rec, args.count)
    if args.format == "csv":
        for k, v in enumerate(values):  # JSON's allow_nan=False refuses these too
            if isinstance(v, float) and not math.isfinite(v):
                raise TermOverflow(f"the result cannot be printed as CSV: the term at k={k} "
                                   f"is beyond float range")
        try:
            text = "\n".join(["k,value"] + [f"{k},{v}" for k, v in enumerate(values)])
        except ValueError as exc:  # an integer past Python's digit limit
            raise TermOverflow(f"the result cannot be printed as CSV: {exc}") from None
        print(text)
    else:
        _emit({"terms": [{"k": k, "value": v} for k, v in enumerate(values)]})
    return 0


def cmd_verify(args) -> int:
    rec = _recurrence(args)
    if args.kmax < 0:
        raise _UsageError("--kmax must be nonnegative")
    report = verify(rec, args.kmax, args.tol)
    _emit({
        "kmax": report.kmax,
        "tol": report.rel_tol,
        "paths": {
            name: {"max_rel_err": chk.max_rel_err, "pass": chk.passed}
            for name, chk in report.paths.items()
        },
        "pass": report.passed,
    })
    return 0 if report.passed else 1


_UNIONS = ("union3", "union8")


def _label_names(group: str) -> dict:
    """rotor -> label from the reference table of the union family holding the
    group (the half turn is /I among sixth turns, =1 among eighth turns): its
    first row prints every element, its known-bad cells the mixed +I, =I, ~I."""
    union = next(u for u in _UNIONS if set(FAMILY_ORDERS[group]) <= set(FAMILY_ORDERS[u]))
    cells = [rotor for row in REFERENCE_TABLES[union] for rotor in row]
    return dict(zip(cells, REFERENCE_LABELS[union].split()))


def cmd_table(args) -> int:
    group = args.group
    if group not in FAMILY_ORDERS:
        raise _UsageError(
            f"unknown group {group!r}; choose from {', '.join(sorted(FAMILY_ORDERS))}"
        )
    names = _label_names(group)
    table = multiplication_table(family_elements(group))
    n = len(table.elements)
    element_names = [names[e] for e in table.elements]
    product_names = [[names[table.product_rotor(i, j)] for j in range(n)] for i in range(n)]
    if args.format == "csv":
        print(",".join(["*"] + element_names))
        for name, row in zip(element_names, product_names):
            print(",".join([name] + row))
        return 0
    payload = {
        "group": group,
        "order": n,
        "elements": element_names,
        "products": product_names,
        "axioms": {
            "closure": table.axiom_report.closure,
            "associativity": table.axiom_report.associativity,
            "identity": table.axiom_report.identity,
            "inverses": table.axiom_report.inverses,
        },
    }
    if group in _UNIONS:
        payload["reference_mismatches"] = [
            {
                "row": d.row,
                "col": d.col,
                "row_element": element_names[d.row],
                "col_element": element_names[d.col],
                "printed": names[d.printed],
                "computed": names[d.computed],
            }
            for d in diff_reference(table, group)
        ]
    _emit(payload)
    return 0


def cmd_sigma(args) -> int:
    coeffs = _parse_numbers(args.coeffs, "--coeffs")
    if len(coeffs) not in (2, 3):
        raise _UsageError("sigma covers orders 2 and 3 only")
    _emit({"degree": len(coeffs), **_sigma_block(coeffs)})
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotorcalc",
        description="Rotor algebra, recurrence solving, and closed-form checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a rotor-chain expression")
    p.add_argument("expr", help="expression text, e.g. '2 / 3'")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("roots", help="characteristic roots of x^n = c_{n-1} x^(n-1) + ... + c_0")
    p.add_argument("--coeffs", required=True, help="c_0,...,c_{n-1}")
    p.add_argument("--method", choices=["closed", "numeric"], default=None,
                   help="closed forms (degrees 2-3) or simultaneous iteration")
    p.add_argument("--tol", type=_finite_float, default=1e-10, help="numeric sweep tolerance")
    p.set_defaults(func=cmd_roots)

    for name, fn, extra in (
        ("solve", cmd_solve, "roots and closed-form weights"),
        ("term", cmd_term, "one closed-form term"),
        ("seq", cmd_seq, "exact iterated terms"),
        ("verify", cmd_verify, "cross-check closed forms against iteration"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--coeffs", required=True, help="c_0,...,c_{n-1}")
        p.add_argument("--seeds", required=True, help="x_0,...,x_{n-1}")
        if name == "term":
            p.add_argument("-k", type=int, required=True, help="term index")
        if name == "seq":
            p.add_argument("--count", type=int, required=True, help="number of terms")
            p.add_argument("--format", choices=["json", "csv"], default="json")
        if name == "verify":
            p.add_argument("--kmax", type=int, required=True, help="check k = 0..kmax")
            p.add_argument("--tol", type=_finite_float, default=1e-8, help="relative tolerance")
        p.set_defaults(func=fn)

    p = sub.add_parser("table", help="multiplication table of a rotor family")
    p.add_argument("--group", required=True, help="R3|C3|R4|C4|union3|union8")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sigma", help="resolvent values for orders 2-3")
    p.add_argument("--coeffs", required=True, help="c_0,c_1[,c_2]")
    p.set_defaults(func=cmd_sigma)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
