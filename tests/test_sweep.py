"""The bit-identity sweep (tests/sweep.py) is deterministic and reaches the
whole public API.  It pins no values: those are the sweep's to compare
between two checkouts."""
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import rotorcalc
from rotorcalc.record import Record

SWEEP = Path(__file__).with_name("sweep.py")


def _sweep(*args, hash_seed):
    # the rotorcalc this test imported, whatever put it on the path
    path = [str(Path(rotorcalc.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path)),
           "PYTHONHASHSEED": str(hash_seed)}
    return subprocess.run(
        [sys.executable, "-W", "error", str(SWEEP), "--seed", "3", "--size", "6", *args],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    ).stdout


def test_sweep_is_deterministic_and_covers_the_api():
    first, second = _sweep(hash_seed=1), _sweep(hash_seed=2)
    assert first == second
    lines = [line.split("\t") for line in first.splitlines()]
    assert all(len(line) == 3 for line in lines)
    # the names each line calls, and the classes of what was refused
    called = {word for _, call, _ in lines for word in re.findall(r"\w+", call)}
    called |= {outcome[1:].split(":")[0] for _, _, outcome in lines if outcome.startswith("!")}
    assert set(rotorcalc.__all__) - called == set()
    records = {call.split(" = ")[0] for family, call, _ in lines if family == "records"}
    assert records == {cls.__name__ for cls in Record.__subclasses__()
                       if cls.__module__.startswith("rotorcalc.")}
    assert {family for family, _, _ in lines} == {
        "records", "errors", "unity", "table", "tokenize", "parse", "evaluate",
        "format_expr", "recurrence", "roots", "closed_forms", "component", "verify",
        "refusals",
    }

    # --digest: one line per family, the sha256 of its lines in order
    want = {}
    for family, call, outcome in lines:
        want.setdefault(family, []).append(f"{call}\t{outcome}\n")
    digest = [line.split("\t") for line in _sweep("--digest", hash_seed=3).splitlines()]
    assert digest == [
        [family, str(len(rows)), hashlib.sha256("".join(rows).encode()).hexdigest()]
        for family, rows in sorted(want.items())
    ]
