"""Bit-identity sweep: one line per rotorcalc call over seeded inputs.

Run it with the checkout's own package on the path, e.g. from the root:

    PYTHONPATH=src python tests/sweep.py [--seed N] [--size N] [--digest]

Each line is `family<TAB>call<TAB>outcome`: the outcome is the repr of the
result, and a call that raised prints `!Class: message` under the family
`refusals`, its own family leading the call.  The families are the record
types, the error classes, rotor arithmetic, the group tables, tokenize,
parse, evaluate and format_expr, iteration, the roots by each method, the
closed forms, component and verify.  One seed and size print the same lines
on one platform, so the outputs of two checkouts differ only where their
results do; `--digest` prints one sha256 per family instead, so a diff names
the families that moved.  Pytest does not collect this file;
tests/test_sweep.py runs it.
"""
import argparse
import hashlib
import random
import sys

import rotorcalc as rc

OPSYMS = ["+", "-", "/", "\\", "_", "~", "="]
NUMBERS = ["0", "1", "3", "12", "2.5", "0.1", "007", "1e3", "2.5e-3", "1e-400", "1e999"]
# deliberately bad or edge-case expression texts
FIXED_TEXTS = [
    "", "2 *", "(1", "^2", "2^3.5", "rot(1 3)", "2 ? 3", "2 + Kx", "²", "٣ + 1",
    "0^-1", "(1 - 1)^-2", "10^400", "rot(1,0)", "1e999", "2*1e999", "(2*3)*4", "2*(3*4)",
    "((2*3))", "(2*3)^2*4", "-(2*3)*4", "1 / 1 \\ 1", "1 _ 1 ~ 1 = 1", "*".join(["J"] * 40),
    "(" * 100 + "1" + ")" * 100, "(" * 400 + "1" + ")" * 400, "2^" + "1" * 5000,
]
# (coefficients, seeds) every sweep covers: the paper's sequences, repeated,
# zero and unit roots, and inputs that overflow or do not converge
FIXED_RECURRENCES = [
    ((1, 1), (0, 1)), ((1, 1), (2, 1)), ((1, 2), (0, 1)), ((1, 1, 1), (0, 1, 1)),
    ((1, 1, 1), (3, 1, 3)), ((1, 1, 1, 1), (0, 0, 0, 1)), ((-1, 2), (0, 1)),
    ((0, 0, 0), (1, 2, 3)), ((8, -12, 6), (1, 2, 3)), ((3, 2), (2, -2)), ((-1, 0), (1, 0)),
    ((-2, 1), (1, 1)), ((1, 0), (0, 1)), ((0.5, -1), (2, 1e200)), ((1e6, 1, 0), (0, 0, 1)),
    ((2,), (3,)), ((1, 0, 0, 0, 1), (1, 2, 3, 4, 5)), ((1, 1), (0, 10 ** 400)), ((1,), ()),
    ((), ()), ((-1, 1, 1), (0, 0, 0.5)), ((-0.25, 0.75, 0), (0, 0, 1)),
]
KS = (0, 1, 2, 5, 10, 30, 100, 1000)
TABLES = ("R3", "C3", "R4", "C4", "union3", "union8", "R5")


class Sweep:
    """The lines of one sweep, in call order."""

    def __init__(self):
        self.lines = []

    def call(self, family, fn, *args, label=None):
        """fn(*args), recorded as one line; the result, or None if it raised."""
        label = label or f"{fn.__name__}({', '.join(map(repr, args))})"
        try:
            result = fn(*args)
            outcome = repr(result)
        # the sweep records every refusal, of any class, and goes on
        except Exception as exc:
            self.lines.append(("refusals", f"{family} {label}", f"!{type(exc).__name__}: {exc}"))
            return None
        self.lines.append((family, label, outcome))
        return result


def _atom_text(rng, depth):
    kind = rng.randrange(5 if depth > 0 else 4)
    if kind == 0:
        return rng.choice(NUMBERS)
    if kind == 1:
        return rng.choice("IJi")
    if kind == 2:
        return f"rot({rng.randint(-6, 6)},{rng.randint(-4, 12)})"
    if kind == 3:
        return str(rng.randint(0, 12))
    return f"({_expr_text(rng, depth - 1)})"


def _term_text(rng, depth):
    factors = []
    for _ in range(rng.randint(1, 3)):
        atom = _atom_text(rng, depth)
        factors.append(atom if rng.random() < 0.7 else f"{atom}^{rng.randint(-4, 4)}")
    return "*".join(factors)


def _expr_text(rng, depth):
    text = rng.choice(["", "", *OPSYMS]) + _term_text(rng, depth)
    for _ in range(rng.randrange(3)):
        text += f" {rng.choice(OPSYMS)} {_term_text(rng, depth)}"
    return text


def _mangled(rng, text):
    """text with one character dropped, one inserted or its tail cut."""
    at = rng.randint(0, len(text))
    kind = rng.randrange(3)
    if kind == 0:
        return text[:at] + text[at + 1:]
    if kind == 1:
        return text[:at] + rng.choice("?²K()*^, ") + text[at:]
    return text[:at]


def sweep_unity(s, rng, size):
    for name in ("IDENTITY", "HALF", "THIRD", "TWO_THIRDS", "QUARTER", "THREE_QUARTERS",
                 "SIXTH", "EIGHTH"):
        s.call("unity", rc.rotor_value, getattr(rc, name), label=f"rotor_value({name})")
    rotors = []
    for _ in range(size):
        r = s.call("unity", rc.Rotor, rng.randint(-12, 12), rng.randint(-12, 12))
        if r is not None:
            rotors.append(r)
            s.call("unity", rc.rotor_value, r)
            s.call("unity", lambda r=r: r.turn, label=f"{r!r}.turn")
            s.call("unity", rc.cyclic_closure, r)
    for a, b in zip(rotors, rotors[1:]):
        s.call("unity", rc.rotor_mul, a, b)
        s.call("unity", rc.rotor_pow, a, rng.randint(-7, 7))
    for n in range(-1, 9):
        s.call("unity", rc.nth_roots, n)
        s.call("unity", rc.negative_nth_roots, n)
        s.call("unity", rc.roots_sum, n)
        s.call("unity", rc.roots_sum, n, True)
    terms = [s.call("unity", rc.RotatedTerm, r, rng.uniform(-3, 3)) for r in rotors]
    s.call("unity", rc.chain_resultant, terms)
    for _ in range(size):
        args = [rng.uniform(-2, 2), rng.uniform(-4, 4), rng.uniform(-2, 2), rng.uniform(-4, 4)]
        s.call("unity", rc.pair_polar, *args)
    s.call("unity", rc.pair_polar, 1.0, 0.0, 1.0, 3.141592653589793)


def sweep_tables(s, rng, size):
    for name in TABLES:
        elements = s.call("table", rc.family_elements, name)
        if elements is not None:
            table = s.call("table", rc.multiplication_table, elements,
                           label=f"multiplication_table(family_elements({name!r}))")
            s.call("table", rc.diff_reference, table, name,
                   label=f"diff_reference(<{name} table>, {name!r})")
    for n in range(1, 9):
        s.call("table", rc.multiplication_table, rc.nth_roots(n))
        s.call("table", rc.multiplication_table, rc.negative_nth_roots(n))
    union8 = rc.family_elements("union8")
    for _ in range(size // 4 + 1):
        s.call("table", rc.multiplication_table, rng.sample(union8, rng.randint(1, 8)))
    s.call("table", rc.multiplication_table, [rc.THIRD, rc.HALF, rc.THIRD])


def sweep_expressions(s, rng, size):
    texts = list(FIXED_TEXTS)
    for _ in range(size):
        text = _expr_text(rng, rng.randint(0, 3))
        texts.append(text)
        if rng.random() < 0.3:
            texts.append(_mangled(rng, text))
    for text in texts:
        s.call("tokenize", rc.tokenize, text)
        tree = s.call("parse", rc.parse, text)
        if tree is not None:
            s.call("evaluate", rc.evaluate, tree, label=f"evaluate(parse({text!r}))")
            s.call("format_expr", rc.format_expr, tree, label=f"format_expr(parse({text!r}))")


def _recurrence_specs(rng, size):
    specs = list(FIXED_RECURRENCES)
    values = (0, 0.0, -0.0, 1, 1.0, -1, 2, 0.5, -0.25, 3, -3)
    for i in range(size):
        order = rng.randint(1, 5)
        if i % 3 == 0:
            coeffs = [rng.randint(-3, 3) for _ in range(order)]
        elif i % 3 == 1:
            coeffs = [rng.randint(-12, 12) / 4 for _ in range(order)]
        else:
            coeffs = [rng.choice(values) for _ in range(order)]
        seeds = [rng.randint(-3, 3) for _ in range(order)]
        if rng.random() < 0.1:
            seeds[-1] = rng.choice((2 ** 70 + 1, 1.5, -0.0))
        specs.append((tuple(coeffs), tuple(seeds)))
    return specs


def sweep_recurrences(s, rng, size):
    recs = []
    for coeffs, seeds in _recurrence_specs(rng, size):
        rec = s.call("recurrence", rc.Recurrence, coeffs, seeds)
        if rec is None:
            continue
        recs.append(rec)
        s.call("recurrence", rc.iterate, rec, rng.randint(0, 40))
        s.call("recurrence", rc.characteristic_ratio, rec, rng.randint(0, 60))
        poly = s.call("recurrence", rc.characteristic_polynomial, rec)
        s.call("recurrence", poly.value, 1.5 - 0.5j, label=f"{poly!r}.value((1.5-0.5j))")
    for _ in range(size // 4 + 1):
        s.call("recurrence", rc.from_general, [rng.randint(-3, 3) for _ in range(rng.randint(0, 5))])
    s.call("recurrence", rc.CharPoly, 3, (1, 1))
    return recs


def sweep_roots(s, rng, recs):
    for rec in recs:
        n, c = rec.order, rec.coeffs
        if n == 2:
            s.call("roots", rc.quadratic_roots, *c)
        if n == 3:
            s.call("roots", rc.cubic_resolvents, *c)
            s.call("roots", rc.cubic_roots, *c)
        poly = rc.characteristic_polynomial(rec)
        found = s.call("roots", rc.numeric_roots, poly)
        if found is not None:
            s.call("roots", rc.vieta_residuals, found, poly)
    for n in range(1, 6):
        tables = s.call("roots", rc.permutation_tables, n)
        if tables is None:
            continue
        roots = [complex(rng.gauss(0, 2), rng.gauss(0, 2)) for _ in range(n)]
        # the symmetric sum, then the first-row sigma of each signed table
        c_top, *sigmas = [s.call("roots", rc.sigma_from_roots, roots, t)[0] for t in tables]
        s.call("roots", rc.roots_from_sigma, c_top, sigmas, n)
        s.call("roots", rc.roots_from_sigma, c_top, [sigmas[0] + 1.0, *sigmas[1:]], n)
        s.call("roots", rc.roots_from_sigma, c_top, sigmas[:-1], n)
        s.call("roots", rc.sigma_from_roots, roots[:-1], tables[0])
    s.call("roots", rc.roots_from_sigma, 1.0, [1.0] * 6, 5)
    s.call("roots", rc.vieta_residuals, rc.cubic_roots(1, 1, 1), rc.CharPoly(2, (1, 1)))
    s.call("roots", rc.numeric_roots, rc.CharPoly(0, ()))


def sweep_closed_forms(s, rng, recs):
    for rec in recs:
        ks = sorted(rng.sample(KS, 3))
        form = s.call("closed_forms", rc.solve_weights, rec)
        if form is not None:
            for k in ks:
                s.call("closed_forms", rc.closed_term, form, k,
                       label=f"closed_term(<weights of {rec!r}>, {k})")
        # binet2 refuses, with its own text, the orders neither closed form covers
        binet = {2: rc.binet2, 3: rc.binet3}.get(rec.order, rc.binet2)
        for k in ks:
            s.call("closed_forms", binet, rec, k)
        mform = s.call("closed_forms", rc.m_form, rec)
        if mform is not None:
            for k in ks:
                s.call("closed_forms", mform.evaluate, k, label=f"m_form({rec!r}).evaluate({k})")
        if rec.order in (2, 3):
            for kind in "LFCBAX":
                s.call("component", rc.component, rec, kind, rng.choice(KS))
        s.call("verify", rc.verify, rec, rng.randint(0, 200))
    s.call("closed_forms", rc.MForm, 2, (0.5 + 0j, 0.25 + 0j), (2 + 0j, -1 + 0j))
    s.call("closed_forms", rc.MForm, 5, (1,), (1,))
    s.call("closed_forms", rc.MForm, 2, (1,), (1, 2))
    s.call("verify", rc.verify, rc.Recurrence((3, 2), (2, -2)), 700)
    s.call("verify", rc.verify, rc.Recurrence((1, 1), (0, 1)), 50, 1e-300)
    s.call("verify", rc.verify, rc.Recurrence((1, 1), (0, 1)), -1)


def _record_samples():
    """(how, factory) for one instance of every record type."""
    fib = rc.Recurrence((1, 1), (0, 1))
    trib = rc.Recurrence((1, 1, 1), (0, 1, 1))
    tetra = rc.Recurrence((1, 1, 1, 1), (0, 0, 0, 1))
    return [
        ("Rotor(-4, 6)", lambda: rc.Rotor(-4, 6)),
        ("RotatedTerm(THIRD, -2.0)", lambda: rc.RotatedTerm(rc.THIRD, -2.0)),
        ("multiplication_table(nth_roots(3))", lambda: rc.multiplication_table(rc.nth_roots(3))),
        ("multiplication_table(negative_nth_roots(2)).axiom_report",
         lambda: rc.multiplication_table(rc.negative_nth_roots(2)).axiom_report),
        ("diff_reference(<union8 table>, 'union8')[-1]", lambda: rc.diff_reference(
            rc.multiplication_table(rc.family_elements("union8")), "union8")[-1]),
        ("tokenize('rot(1,3)*I^-2')[6]", lambda: rc.tokenize("rot(1,3)*I^-2")[6]),
        ("parse('2.5')", lambda: rc.parse("2.5")),
        ("parse('J')", lambda: rc.parse("J")),
        ("parse('rot(-1,3)')", lambda: rc.parse("rot(-1,3)")),
        ("parse('2*J*(1 / 2)')", lambda: rc.parse("2*J*(1 / 2)")),
        ("parse('I^-2')", lambda: rc.parse("I^-2")),
        ("parse('~1 / rot(1,4)')", lambda: rc.parse("~1 / rot(1,4)")),
        ("cubic_roots(1, 1, 1)", lambda: rc.cubic_roots(1, 1, 1)),
        ("cubic_resolvents(1, 1, 1)", lambda: rc.cubic_resolvents(1, 1, 1)),
        ("roots.root_analysis((1, 1, 1))", lambda: rc.roots.root_analysis((1, 1, 1))),
        ("permutation_tables(4)[3]", lambda: rc.permutation_tables(4)[3]),
        ("Recurrence([1, 1], [0, 1.5])", lambda: rc.Recurrence([1, 1], [0, 1.5])),
        ("characteristic_polynomial(TRIB)", lambda: rc.characteristic_polynomial(trib)),
        ("solve_weights(TRIB)", lambda: rc.solve_weights(trib)),
        ("m_form(TETRA)", lambda: rc.m_form(tetra)),
        ("closed_term(solve_weights(FIB), 10)", lambda: rc.closed_term(rc.solve_weights(fib), 10)),
        ("verify(FIB, 20).paths['m_form']", lambda: rc.verify(fib, 20).paths["m_form"]),
        ("verify(TRIB, 20)", lambda: rc.verify(trib, 20)),
    ]


def sweep_records(s):
    """Every record type: its repr, == and hash against a second build, and
    the refusal of an assignment.  A sample that cannot be built (a checkout
    without its record type) is recorded as a refusal."""
    for how, factory in _record_samples():
        try:
            a, b = factory(), factory()
        except Exception as exc:
            s.lines.append(("refusals", f"records {how}", f"!{type(exc).__name__}: {exc}"))
            continue
        try:
            same_hash = hash(a) == hash(b)
        except TypeError as exc:  # a record holding a dict, as VerifyReport does
            same_hash = f"!TypeError: {exc}"
        try:
            setattr(a, a._fields[0], None)
            assigned = "assigned"
        except AttributeError as exc:
            assigned = str(exc)
        s.lines.append(("records", f"{type(a).__name__} = {how}",
                        f"{a!r} equal={a == b} same_hash={same_hash} {assigned}"))


def sweep_errors(s):
    for name in rc.__all__:
        obj = getattr(rc, name)
        if isinstance(obj, type) and issubclass(obj, Exception):
            s.lines.append(("errors", name, " < ".join(c.__name__ for c in obj.__mro__)))


def run(seed: int, size: int) -> list:
    """Every line of the sweep for seed and size, as (family, call, outcome)."""
    rng = random.Random(seed)
    s = Sweep()
    sweep_records(s)
    sweep_errors(s)
    sweep_unity(s, rng, size)
    sweep_tables(s, rng, size)
    sweep_expressions(s, rng, size)
    recs = sweep_recurrences(s, rng, size)
    sweep_roots(s, rng, recs)
    sweep_closed_forms(s, rng, recs)
    return s.lines


def digests(lines) -> dict:
    """family -> (line count, sha256 of its lines in order)."""
    hashes = {}
    for family, call, outcome in lines:
        h = hashes.setdefault(family, [0, hashlib.sha256()])
        h[0] += 1
        h[1].update(f"{call}\t{outcome}\n".encode())
    return {family: (count, h.hexdigest()) for family, (count, h) in sorted(hashes.items())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=12)
    ap.add_argument("--size", type=int, default=200, help="random inputs per family")
    ap.add_argument("--digest", action="store_true", help="one sha256 per family")
    args = ap.parse_args(argv)
    lines = run(args.seed, args.size)
    if args.digest:
        for family, (count, hexdigest) in digests(lines).items():
            print(f"{family}\t{count}\t{hexdigest}")
    else:
        for line in lines:
            print("\t".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
