"""Shared generators for randomized tests, and the memo reset."""
import random
import sys

from rotorcalc.expr import Chain, Const, Mul, Number, Pow, Rot

OPSYMS = ["+", "-", "/", "\\", "_", "~", "="]


def random_rotor_args(rng: random.Random, max_den: int = 12):
    den = rng.randint(1, max_den)
    num = rng.randint(-max_den, max_den)
    return num, den


def random_expr(rng: random.Random, depth: int):
    """Random AST that formats to parseable text and evaluates safely.

    Numbers are nonnegative (signs live in chain operators), exponents stay
    in [-4, 4], and depth is capped, which bounds every value well inside
    float range.
    """
    if depth <= 0:
        kind = rng.randrange(4)
        if kind == 0:
            return Number(float(rng.randint(0, 12)))
        if kind == 1:
            return Number(round(rng.uniform(0.0, 9.99), 4))
        if kind == 2:
            return Const(rng.choice(["I", "J", "i"]))
        return Rot(*random_rotor_args(rng))
    kind = rng.randrange(10)
    if kind < 3:
        return random_expr(rng, 0)
    if kind < 6:
        count = rng.randint(2, 4)
        items = tuple(
            (rng.choice(OPSYMS), random_expr(rng, depth - 1)) for _ in range(count)
        )
        return Chain(items)
    if kind < 8:
        return Mul(tuple(random_expr(rng, depth - 1) for _ in range(rng.randint(2, 4))))
    return Pow(random_expr(rng, depth - 1), rng.randint(-4, 4))


def memos():
    """Every remembering (`_memo`-wrapped) function of the loaded rotorcalc
    modules, once each."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "rotorcalc" or name.startswith("rotorcalc."):
            for obj in list(vars(module).values()):
                if callable(getattr(obj, "cache_clear", None)):
                    found[id(obj)] = obj
    return list(found.values())


def clear_memos():
    """Forget every remembered result, so the next call solves afresh."""
    for fn in memos():
        fn.cache_clear()
