"""Seeded expression trees for the rotor-chain language, and the benchmark's
own formatter for them.

Trees use the tuple form described in oracle.py.  Negative exponents only
ever apply to atoms, so no value is an ill-conditioned reciprocal of a
cancelling sum, and nesting stays shallow enough to keep every value far
inside float range.
"""
from __future__ import annotations

import random

OPSYMS = ("+", "-", "/", "\\", "_", "~", "=")
_ATOMS = ("num", "const", "rot")


def random_atom(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        return ("num", float(rng.randint(0, 12)))
    if kind == 1:
        return ("num", round(rng.uniform(0.0, 9.99), 2))
    if kind == 2:
        return ("const", rng.choice("IJi"))
    den = rng.choice([d for d in range(-12, 13) if d != 0])
    return ("rot", rng.randint(-12, 12), den)


def random_tree(rng: random.Random, depth: int):
    if depth <= 0 or rng.random() < 0.3:
        return random_atom(rng)
    kind = rng.randrange(3)
    if kind == 0:
        first = rng.choice(OPSYMS[1:])  # a leading "+" would collapse the chain
        items = [(first if rng.random() < 0.3 else "+", random_tree(rng, depth - 1))]
        items += [(rng.choice(OPSYMS), random_tree(rng, depth - 1))
                  for _ in range(rng.randint(1, 3))]
        return ("chain", tuple(items))
    if kind == 1:
        return ("mul", random_tree(rng, depth - 1), random_tree(rng, depth - 1))
    if rng.random() < 0.5:
        return ("pow", random_atom(rng), rng.randint(-3, -1))
    return ("pow", random_tree(rng, depth - 1), rng.randint(0, 3))


def random_expression(rng: random.Random, target_chars: int):
    """A top-level chain grown one item at a time until its text reaches
    target_chars (a single item stands alone when it is already long enough).
    Returns (tree, text)."""
    items = []
    length = 0
    while length < target_chars:
        item = random_tree(rng, 3)
        op = rng.choice(OPSYMS) if items else "+"
        items.append((op, item))
        length += len(format_tree(item)) + 3
    tree = items[0][1] if len(items) == 1 else ("chain", tuple(items))
    return tree, format_tree(tree)


def _fmt_number(x: float) -> str:
    return str(int(x)) if x.is_integer() else repr(x)


def format_tree(tree) -> str:
    kind = tree[0]
    if kind == "num":
        return _fmt_number(tree[1])
    if kind == "const":
        return tree[1]
    if kind == "rot":
        return f"rot({tree[1]},{tree[2]})"
    if kind == "pow":
        base = format_tree(tree[1])
        if tree[1][0] not in _ATOMS:
            base = f"({base})"
        return f"{base}^{tree[2]}"
    if kind == "mul":
        left = format_tree(tree[1])
        if tree[1][0] == "chain":
            left = f"({left})"
        right = format_tree(tree[2])
        if tree[2][0] in ("chain", "mul"):
            right = f"({right})"
        return f"{left}*{right}"
    parts = []
    for idx, (op, item) in enumerate(tree[1]):
        text = format_tree(item)
        if item[0] == "chain":
            text = f"({text})"
        if idx == 0:
            parts.append(text if op == "+" else op + text)
        else:
            parts.append(f" {op} {text}")
    return "".join(parts)
