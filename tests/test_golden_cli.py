"""CLI payloads pinned to a recorded run.

`golden_cli.json` holds, for a fixed set of argv lists covering every
subcommand, the exit code and standard output `main` produced when it was
recorded.  Refactors must reproduce them: everything compares exactly
except floats, which may move by 1e-12 relative to max(1, |recorded|).
"""
import json
from pathlib import Path

import pytest

from rotorcalc.cli import main

CASES = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))


def _close(want, got, where):
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), where
    elif isinstance(want, dict) and isinstance(got, dict):
        assert list(got) == list(want), where
        for key in want:
            _close(want[key], got[key], f"{where}.{key}")
    elif isinstance(want, list) and isinstance(got, list):
        assert len(got) == len(want), where
        for i, (w, g) in enumerate(zip(want, got)):
            _close(w, g, f"{where}[{i}]")
    else:
        assert type(got) is type(want) and got == want, where


def _csv_cell(text):
    """Cells of the CSV payloads: integers and floats are parsed, labels kept."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _payload(text):
    try:
        return json.loads(text)
    except ValueError:
        return [[_csv_cell(cell) for cell in line.split(",")] for line in text.splitlines()]


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_payload_matches_recording(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["code"]
    _close(_payload(case["stdout"]), _payload(out), "stdout")
