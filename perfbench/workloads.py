"""The workloads: seeded inputs, the calls each request makes, and the
checks of each answer against the oracle.

Every workload is a closed loop with one client.  A request either
succeeds, is refused (rotorcalc raised a DomainError for an input it does
not cover), or fails: an uncaught non-DomainError exception, stdout that is
not strict JSON, or an answer that disagrees with the oracle.  Inputs come
from the domain where rotorcalc must answer right (NORM_CAP below), so a
correct run fails none; the known defects outside it are reproduced by
defects.py.
"""
from __future__ import annotations

import collections
import itertools
import json
import math
import random
import subprocess
from dataclasses import dataclass
from fractions import Fraction

import exprs
import oracle


@dataclass(frozen=True)
class Spec:
    repeat_share: float     # share of requests that re-issue an earlier one
    tail_pct: float         # percentile reported as req_ms_tail
    min_requests: int       # a run's least requests: >= 10 beyond tail_pct
    trace_rate: float       # traced requests per second of --seconds


# Only closed_forms repeats requests, so a cache can show there and must not
# show on cli_cold.  Its share is an assumption: no traffic has been recorded
# to measure one from.
SPECS = {
    "cli_cold": Spec(0.0, 90.0, 100, 2.0),
    "closed_forms": Spec(0.25, 99.0, 4000, 80.0),
}


class Tally:
    """Outcome of checking one request."""

    def __init__(self):
        self.problems = []
        self.refusals = 0

    def fail(self, what: str):
        self.problems.append(what)


def _stratum(rng: random.Random, index: int, strata: int = 10) -> float:
    """A uniform draw in [0,1) from stratum index % strata, so every run
    covers the range evenly however few requests it makes."""
    return ((index % strata) + rng.random()) / strata


def _log_uniform_int(u: float, top: int) -> int:
    return int(math.exp(u * math.log(top + 1))) - 1


def request_stream(name: str, seed: int):
    """Endless seeded requests.  Exactly repeat_share of them re-issue an
    earlier request, at evenly spaced positions; the rest are new, and the
    makers cycle their input classes by the new request's index so every
    stretch of the run has the same mix."""
    rng = random.Random(f"{name}:{seed}")
    make = _MAKERS[name]
    share = SPECS[name].repeat_share
    recent = collections.deque(maxlen=REPEAT_WINDOW)
    made = 0
    for i in itertools.count():
        if recent and math.floor((i + 1) * share) > math.floor(i * share):
            yield rng.choice(recent), True
        else:
            req = make(rng, made)
            made += 1
            recent.append(req)
            yield req, False


# Repeats re-issue one of the last REPEAT_WINDOW new requests, so the
# benchmark's own live objects, and the garbage collector's work on them,
# stay the same however long a run lasts.
REPEAT_WINDOW = 256


# --- recurrence inputs -------------------------------------------------------------


def _int_recurrence(rng, order, coeff_range, seed_range):
    coeffs = [rng.randint(-coeff_range, coeff_range) for _ in range(order)]
    coeffs[0] = coeffs[0] or rng.choice([-1, 1])
    seeds = [rng.randint(-seed_range, seed_range) for _ in range(order)]
    if not any(seeds):
        seeds[-1] = 1
    return tuple(coeffs), tuple(seeds)


def _quarter_recurrence(rng, order):
    """Non-integral float coefficients and seeds on a quarter grid."""
    coeffs = [rng.randint(-12, 12) / 4 for _ in range(order)]
    coeffs[0] = coeffs[0] or 0.25
    if all(c.is_integer() for c in coeffs):
        coeffs[rng.randrange(order)] += 0.25
    seeds = [rng.randint(-20, 20) / 4 for _ in range(order)]
    if not any(seeds):
        seeds[-1] = 1.0
    return tuple(coeffs), tuple(seeds)


def _distinct(rng, draw, *args):
    """A recurrence from draw whose characteristic roots are distinct."""
    while True:
        coeffs, seeds = draw(rng, *args)
        if oracle.distinct_roots(coeffs):
            return coeffs, seeds


# The domain every workload draws from, where float closed forms are meant to
# hold: distinct characteristic roots, and k no further than the horizon where
# ||M^k||, the size of the float terms a closed form sums, passes NORM_CAP.
# There every answer is checked and none may fail; the known defects lie
# outside it, and run.py reproduces them separately (see defects.py).
NORM_CAP = 2.0 ** 30


# --- closed_forms -------------------------------------------------------------------


def _make_closed(rng, index):
    """Orders 2-4 in turn, integral and on a quarter grid in turn; one k from
    each quarter of the log range up to the recurrence's horizon (at most
    1000), and verify at kmax 20-200."""
    order = 2 + index % 3
    if index // 3 % 2 == 0:
        coeffs, seeds = _distinct(rng, _int_recurrence, order, 3, 5)
    else:
        coeffs, seeds = _distinct(rng, _quarter_recurrence, order)
    top = oracle.horizon(coeffs, NORM_CAP, 1000)
    ks = tuple(_log_uniform_int((j + rng.random()) / CLOSED_KS, top) for j in range(CLOSED_KS))
    kmax = 20 + int(_stratum(rng, index // 6) * 181)
    return ("closed", coeffs, seeds, ks, kmax)


CLOSED_KS = 4


def _call(results, name, fn, *args):
    try:
        results[name] = fn(*args)
    except Exception as exc:  # classified by the check, outside the timed region
        results[name] = exc
        return None
    return results[name]


def run_closed(rc, req):
    _, coeffs, seeds, ks, kmax = req
    n = len(coeffs)
    r = {}
    rec = rc.Recurrence(coeffs, seeds)
    if n == 2:
        _call(r, "roots", lambda: rc.quadratic_roots(*coeffs)[0])
    elif n == 3:
        _call(r, "roots", rc.cubic_roots, *coeffs)
    else:
        _call(r, "roots", rc.numeric_roots, rc.CharPoly(n, coeffs))
    form = _call(r, "weights", rc.solve_weights, rec)
    mf = _call(r, "m_form", rc.m_form, rec)
    for k in ks:
        if form is not None:
            _call(r, ("closed_term", k), rc.closed_term, form, k)
        if mf is not None:
            _call(r, ("m_form", k), mf.evaluate, k)
        if n == 2:
            _call(r, ("binet2", k), rc.binet2, rec, k)
            _call(r, ("component_F", k), rc.component, rec, "F", k)
            _call(r, ("component_L", k), rc.component, rec, "L", k)
        if n == 3:
            _call(r, ("binet3", k), rc.binet3, rec, k)
            _call(r, ("component_C", k), rc.component, rec, "C", k)
    _call(r, "verify", rc.verify, rec, kmax)
    return r


def _component_seeds(coeffs, kind):
    """Seeds of the chain named kind, which obeys the same recurrence."""
    c = [Fraction(x) for x in coeffs]
    if kind == "F":
        return (0, 1)
    if kind == "L":
        return (2, c[1])
    return (3, c[2], c[2] * c[2] + 2 * c[1])  # power sums of the three roots


def _verify_paths(order):
    """The closed-form paths verify runs for a recurrence of this order."""
    paths = {"weights"}
    if order in (2, 3):
        paths.add(f"binet{order}")
    if order in (2, 3, 4):
        paths.add("m_form")
    return paths


class Checker:
    """Oracle checks.  Nothing is remembered across requests, so the
    checks add nothing to the memory peak the run reports."""

    def __init__(self, rc):
        self.rc = rc
        self._powers = {}

    def term(self, coeffs, seeds, k):
        """Exact x_k and its scale; one request's chains share M^k."""
        key = (coeffs, k)
        if key not in self._powers:
            self._powers[key] = oracle.companion_power(coeffs, k)
        return oracle.term_and_scale(coeffs, seeds, k, self._powers[key])

    def classify(self, tally, name, value) -> bool:
        """True when value is an answer to check; exceptions are tallied."""
        if not isinstance(value, Exception):
            return True
        if isinstance(value, self.rc.DomainError):
            tally.refusals += 1
        else:
            tally.fail(f"{name}: uncaught {type(value).__name__}: {value}")
        return False

    def check_closed(self, req, r) -> Tally:
        _, coeffs, seeds, ks, kmax = req
        n = len(coeffs)
        tally = Tally()
        self._powers.clear()
        if self.classify(tally, "roots", r["roots"]):
            for why in oracle.roots_problems(coeffs, r["roots"].roots):
                tally.fail(f"roots: {why}")
        if self.classify(tally, "solve_weights", r["weights"]):
            form = r["weights"]
            for i in range(n + 1):
                x_i, s_i = self.term(coeffs, seeds, i)
                fit = sum(w * z ** i for w, z in zip(form.weights, form.roots.roots))
                if not oracle.close_to_exact(fit + form.weights[-1], x_i, s_i):
                    tally.fail(f"solve_weights: weights miss x_{i}")
        self.classify(tally, "m_form", r["m_form"])
        for key, value in r.items():
            if not isinstance(key, tuple) or not self.classify(tally, key[0], value):
                continue
            name, k = key
            if name.startswith("component_"):
                want, scale = self.term(coeffs, _component_seeds(coeffs, name[-1]), k)
            else:
                want, scale = self.term(coeffs, seeds, k)
            if name == "closed_term":
                if value.nearest is not None and value.nearest != want:
                    tally.fail(f"closed_term: nearest {value.nearest} != exact at k={k}")
                value = value.value
            if not oracle.close_to_exact(value, want, scale):
                tally.fail(f"{name}: value at k={k} is off")
        if self.classify(tally, "verify", r["verify"]):
            report = r["verify"]
            if set(report.paths) != _verify_paths(n) or report.kmax != kmax:
                tally.fail(f"verify: paths {sorted(report.paths)} for order {n}")
            for name, path in report.paths.items():
                if path.passed != (path.max_rel_err <= report.rel_tol):
                    tally.fail(f"verify: {name} pass flag disagrees with its error")
            if report.passed != all(p.passed for p in report.paths.values()):
                tally.fail("verify: overall pass disagrees with the paths")
        return tally


# --- cli_cold ----------------------------------------------------------------------------

CLI_GROUPS = ("R3", "C3", "R4", "C4", "union3", "union8")


def _flag(name, values):
    return f"--{name}=" + ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _cli_recurrence(rng, order, integral):
    if integral:
        return _distinct(rng, _int_recurrence, order, 2, 5)
    return _distinct(rng, _quarter_recurrence, order)


def _make_cli(rng, index):
    """Small inputs of every subcommand: start-up and import dominate.  Each
    subcommand's calls take integral and quarter-grid recurrences in turn,
    and its other output format or root method every other pair of calls."""
    command = ("eval", "roots", "solve", "term", "seq", "verify", "table", "sigma")[index % 8]
    turn = index // 8
    integral = turn % 2 == 0
    other_form = turn // 2 % 2 == 1
    if command == "eval":
        tree, text = exprs.random_expression(rng, rng.randint(10, 80))
        return ("cli", ("eval", "--", text), tree)
    if command in ("roots", "sigma"):
        order = rng.randint(2, 5) if command == "roots" else rng.randint(2, 3)
        coeffs, _ = _cli_recurrence(rng, order, integral)
        argv = (command, _flag("coeffs", coeffs))
        if command == "roots" and order <= 3 and other_form:
            argv += ("--method", "numeric")
        return ("cli", argv, coeffs)
    if command == "table":
        argv = ("table", "--group", rng.choice(CLI_GROUPS))
        return ("cli", argv + (("--format", "csv") if other_form else ()), None)
    order = rng.randint(1, 5) if command == "seq" else rng.randint(2, 4)
    coeffs, seeds = _cli_recurrence(rng, order, integral)
    argv = (command, _flag("coeffs", coeffs), _flag("seeds", seeds))
    if command == "term":
        argv += ("-k", str(rng.randint(0, oracle.horizon(coeffs, NORM_CAP, 30))))
    elif command == "seq":
        argv += ("--count", str(rng.randint(0, 40)))
        if other_form:
            argv += ("--format", "csv")
    elif command == "verify":
        argv += ("--kmax", str(rng.randint(5, 40)))
    return ("cli", argv, (coeffs, seeds))


def run_cli(command, req, env, cwd):
    """One cold process; returns (exit code, stdout, stderr)."""
    proc = subprocess.run(
        command + list(req[1]), env=env, cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


def strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _arg(argv, flag, default=None):
    for i, a in enumerate(argv):
        if a == flag:
            return argv[i + 1]
    return default


def _cplx(d):
    return complex(d["re"], d["im"])


class CliChecker(Checker):

    def check_cli(self, req, code, out, err) -> Tally:
        tally = Tally()
        self._powers.clear()
        argv = req[1]
        command = argv[0]
        if code == 1 and err.startswith("error: ") and not out:
            tally.refusals += 1
            return tally
        if "Traceback" in err:
            tally.fail(f"{command}: uncaught exception: {err.strip().splitlines()[-1]}")
            return tally
        if code not in (0, 1) or (code == 1 and command != "verify"):
            tally.fail(f"{command}: exit {code}: {err.strip()[:200]}")
            return tally
        if _arg(argv, "--format") == "csv":
            self._check_csv(tally, req, out)
            return tally
        try:
            payload = strict_json(out)
        except ValueError as exc:
            tally.fail(f"{command}: stdout is not strict JSON ({exc})")
            return tally
        if code == 1 and payload.get("pass") is not False:
            tally.fail("verify: exit 1 without \"pass\": false")
            return tally
        try:
            getattr(self, "_cli_" + command)(tally, req, payload)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            tally.fail(f"{command}: malformed payload ({type(exc).__name__}: {exc})")
        return tally

    def _check_csv(self, tally, req, out):
        lines = out.splitlines()
        argv = req[1]
        if argv[0] == "seq":
            coeffs, seeds = req[2]
            want = oracle.exact_terms(coeffs, seeds, int(_arg(argv, "--count")))
            if not lines or lines[0] != "k,value":
                tally.fail("seq: CSV header missing")
                return
            rows = [line.split(",") for line in lines[1:]]
            if len(rows) != len(want) or any(int(k) != i for i, (k, _) in enumerate(rows)):
                tally.fail("seq: CSV rows do not count k = 0..count-1")
                return
            for i, ((_, v), x) in enumerate(zip(rows, want)):
                got = int(v) if isinstance(x, int) else float(v)
                _, scale = self.term(coeffs, seeds, i)
                if (got != x) if isinstance(x, int) else not oracle.close_to_exact(got, x, scale):
                    tally.fail(f"seq: CSV x_{i} is wrong")
            return
        if not lines or not lines[0].startswith("*,"):
            tally.fail("table: CSV header missing")
            return
        names = lines[0].split(",")[1:]
        turns = [oracle.element_turn(n) for n in names]
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            if oracle.element_turn(cells[0]) != turns[i] or [
                oracle.element_turn(c) for c in cells[1:]
            ] != [oracle.rotor_product(turns[i], t) for t in turns]:
                tally.fail(f"table: CSV row {i} is wrong")
        if len(lines) - 1 != len(names):
            tally.fail("table: CSV is not square")

    def _cli_eval(self, tally, req, p):
        tree = req[2]
        if oracle.expr_refused(tree):
            tally.fail("eval: a zero base to a negative power was not refused")
            return
        want = oracle.expr_value(tree)
        tol = 1e-9 * (1.0 + oracle.expr_magnitude(tree))
        got = complex(p["re"], p["im"])
        if abs(got - want) > tol or abs(p["mod"] - abs(got)) > tol:
            tally.fail(f"eval: {got!r} != {want!r}")
        if not -math.pi < p["arg"] <= math.pi or (
                abs(got) > tol and abs(complex(math.cos(p["arg"]), math.sin(p["arg"])) * abs(got) - got) > tol):
            tally.fail("eval: arg is not the argument of the value")

    def _roots_of(self, tally, name, coeffs, entries):
        roots = [complex(e["re"], e["im"]) for e in entries]
        for why in oracle.roots_problems(list(coeffs), roots):
            tally.fail(f"{name}: {why}")
        return roots

    def _sigma_block(self, tally, coeffs, p):
        if len(coeffs) == 2:
            c0, c1 = coeffs
            s1 = _cplx(p["sigma1"])
            if abs(s1 * s1 - (c1 * c1 + 4 * c0)) > 1e-9 * (1 + c1 * c1 + 4 * abs(c0)):
                tally.fail("sigma: sigma1^2 != c1^2 + 4 c0")
            return
        c0, c1, c2 = coeffs
        a = 2 * c2 ** 3 + 9 * c1 * c2 + 27 * c0
        b = c2 * c2 + 3 * c1
        s1, s2 = _cplx(p["sigma1"]), _cplx(p["sigma2"])
        size = 1 + abs(a) + abs(b) ** 1.5
        if abs(p["A"] - a) > 1e-9 * size or abs(p["B"] - b) > 1e-9 * size:
            tally.fail("sigma: A or B is wrong")
        if abs(s1 * s2 - b) > 1e-6 * size or abs(s1 ** 3 + s2 ** 3 - a) > 1e-6 * size:
            tally.fail("sigma: sigma1, sigma2 do not satisfy s1 s2 = B, s1^3 + s2^3 = A")

    def _cli_roots(self, tally, req, p):
        coeffs = req[2]
        n = len(coeffs)
        method = _arg(req[1], "--method") or ("closed" if n in (2, 3) else "numeric")
        want = f"closed{n}" if method == "closed" else "numeric"
        if p["degree"] != n or p["method"] != want:
            tally.fail(f"roots: degree {p['degree']} by {p['method']}, expected {n} by {want}")
        roots = self._roots_of(tally, "roots", coeffs, p["roots"])
        sep = min((abs(a - b) for i, a in enumerate(roots) for b in roots[i + 1:]), default=math.inf)
        if n > 1 and abs(p["min_separation"] - sep) > 1e-9 * (1 + sep):
            tally.fail("roots: min_separation is not the smallest root distance")
        if n in (2, 3):
            self._sigma_block(tally, coeffs, p)

    def _cli_sigma(self, tally, req, p):
        if p["degree"] != len(req[2]):
            tally.fail("sigma: wrong degree")
        self._sigma_block(tally, req[2], p)

    def _cli_solve(self, tally, req, p):
        coeffs, seeds = req[2]
        n = len(coeffs)
        roots = self._roots_of(tally, "solve", coeffs, p["roots"])
        weights = [_cplx(w) for w in p["weights"]]
        if p["order"] != n or len(weights) != n + 1:
            tally.fail("solve: wrong order or weight count")
            return
        for i in range(n + 1):
            x_i, s_i = self.term(coeffs, seeds, i)
            fit = sum(w * z ** i for w, z in zip(weights, roots)) + weights[-1]
            if not oracle.close_to_exact(fit, x_i, s_i):
                tally.fail(f"solve: weights miss x_{i}")

    def _cli_term(self, tally, req, p):
        coeffs, seeds = req[2]
        k = int(_arg(req[1], "-k"))
        exact, scale = self.term(coeffs, seeds, k)
        if p["k"] != k or not oracle.close_to_exact(_cplx(p["closed"]), exact, scale):
            tally.fail(f"term: closed value at k={k} is off")
        if "nearest" in p and p["nearest"] != exact:
            tally.fail(f"term: nearest {p['nearest']} != exact at k={k}")
        integral = isinstance(oracle.exact_scalars(list(coeffs) + list(seeds))[0], int)
        if integral and p.get("exact") != exact:
            tally.fail(f"term: exact field is not x_{k}")

    def _cli_seq(self, tally, req, p):
        coeffs, seeds = req[2]
        want = oracle.exact_terms(coeffs, seeds, int(_arg(req[1], "--count")))
        terms = p["terms"]
        if [t["k"] for t in terms] != list(range(len(want))):
            tally.fail("seq: terms do not count k = 0..count-1")
            return
        for i, (t, x) in enumerate(zip(terms, want)):
            if isinstance(x, int):
                ok = t["value"] == x and isinstance(t["value"], int)
            else:
                ok = oracle.close_to_exact(t["value"], x, self.term(coeffs, seeds, i)[1])
            if not ok:
                tally.fail(f"seq: x_{i} is wrong")

    def _cli_verify(self, tally, req, p):
        coeffs, _ = req[2]
        n = len(coeffs)
        if set(p["paths"]) != _verify_paths(n) or p["kmax"] != int(_arg(req[1], "--kmax")):
            tally.fail(f"verify: paths {sorted(p['paths'])} for order {n}")
        for name, path in p["paths"].items():
            if path["pass"] != (path["max_rel_err"] <= p["tol"]):
                tally.fail(f"verify: {name} pass flag disagrees with its error")
        if p["pass"] != all(path["pass"] for path in p["paths"].values()):
            tally.fail("verify: overall pass disagrees with the paths")

    def _cli_table(self, tally, req, p):
        turns = [oracle.element_turn(n) for n in p["elements"]]
        products, axioms = oracle.table_facts(turns)
        if p["order"] != len(turns):
            tally.fail("table: order is not the element count")
        for i, row in enumerate(p["products"]):
            if [oracle.element_turn(c) for c in row] != [oracle.rotor_product(turns[i], t) for t in turns]:
                tally.fail(f"table: row {i} is wrong")
        if p["axioms"] != axioms:
            tally.fail(f"table: axioms {p['axioms']} != {axioms}")
        group = p["group"]
        if group in ("union3", "union8"):
            cells = p["reference_mismatches"]
            if len(cells) != oracle.REFERENCE_MISMATCHES[group]:
                tally.fail(f"table: {len(cells)} reference mismatches in {group}")
            for c in cells:
                computed = oracle.element_turn(c["computed"])
                if computed != oracle.rotor_product(turns[c["row"]], turns[c["col"]]) or \
                        computed == oracle.element_turn(c["printed"]):
                    tally.fail(f"table: bad mismatch cell ({c['row']},{c['col']})")


_MAKERS = {
    "cli_cold": _make_cli,
    "closed_forms": _make_closed,
}

