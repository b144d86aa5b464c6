"""Known rotorcalc defects, reproduced on fixed inputs.

The workloads draw only from the domain where every answer must be right
(see NORM_CAP in workloads.py), so that a run fails no request.  The known
defects lie outside that domain; each is reproduced here once per run,
untimed, and checked against the oracle like any workload answer.  A fix
shows as a case that no longer reproduces.
"""
import oracle

FIB = ((1, 1), (0, 1))
TRIB = ((1, 1, 1), (0, 0, 1))
TRIPLE_ROOT = ((1, -2, 0, 2), (1, -1, 2, 1))   # (x-1)^3 (x+1)
DOUBLE_ROOT = ((-1, 1, 1), (0, 1, 2))          # (x-1)^2 (x+1)


def _closed_term(rc, rec, k):
    return rc.closed_term(rc.solve_weights(rc.Recurrence(*rec)), k)


# (defect, recurrence, k, the call that shows it)
CASES = (
    ("closed_term snaps to a wrong nearest (Fibonacci)", FIB, 76, _closed_term),
    ("closed_term snaps to a wrong nearest (Tribonacci)", TRIB, 56, _closed_term),
    ("complex r ** k overflows instead of being refused", FIB, 2000, _closed_term),
    ("closed_term from Durand-Kerner roots of a triple root", TRIPLE_ROOT, 18, _closed_term),
    ("binet3 on a double root", DOUBLE_ROOT, 30,
     lambda rc, rec, k: rc.binet3(rc.Recurrence(*rec), k)),
    ("Durand-Kerner roots of a triple root", TRIPLE_ROOT, None,
     lambda rc, rec, k: rc.numeric_roots(rc.CharPoly(len(rec[0]), rec[0]))),
)


def _wrong(rec, k, answer) -> bool:
    coeffs, seeds = rec
    if k is None:
        return bool(oracle.roots_problems(list(coeffs), answer.roots))
    want, scale = oracle.term_and_scale(coeffs, seeds, k)
    nearest = getattr(answer, "nearest", None)
    value = getattr(answer, "value", answer)
    return (nearest is not None and nearest != want) or not oracle.close_to_exact(value, want, scale)


def reproduce(rc) -> list:
    """The cases whose defect still shows: an exception other than a
    DomainError, or an answer the oracle rejects."""
    shown = []
    for what, rec, k, call in CASES:
        try:
            answer = call(rc, rec, k)
        except rc.DomainError:
            continue
        except Exception as exc:  # the defect under test, not a benchmark error
            shown.append(f"{what}: {type(exc).__name__}")
            continue
        if _wrong(rec, k, answer):
            shown.append(f"{what}: wrong answer")
    return shown
