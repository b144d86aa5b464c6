"""`python -m rotorcalc`, with the benchmark's tracer installed.

usage: python perfbench/cli_traced.py <rotorcalc arguments>

Exit code, stdout and stderr are those of the plain command; the trace is
appended to stderr as one line starting with tracer.MARK.
"""
import json
import sys

import rotorcalc
import rotorcalc.cli

from tracer import MARK, Tracer, keep_all, keep_last


def main(argv) -> int:
    # `term` reads one exact term from the list; `seq` prints all of them.
    keeps = {"rotorcalc.cli": keep_last if argv[:1] == ["term"] else keep_all}
    tracer = Tracer(rotorcalc.DomainError, keeps)
    tracer.install()
    try:
        return rotorcalc.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        trace = {"totals": tracer.totals(), "spans": tracer.spans}
        print(MARK + json.dumps(trace), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
