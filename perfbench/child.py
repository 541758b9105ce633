"""Run a burnfuse child under the host-speed probe (``hostspeed.py``).

Usage, with ``PYTHONPATH=src``::

    python3 perfbench/child.py REPORT.json -m burnfuse.cli ARGS...
    python3 perfbench/child.py REPORT.json -c CODE
    python3 perfbench/child.py REPORT.json SCRIPT.py ARGS...

The target runs as ``__main__``, as ``python`` itself would run it. When it
ends, however it ends, ``REPORT.json`` receives ``probe_s`` (the time the
probe took) and ``factor`` (the host's mean speed ratio over the run), from
which the benchmark computes the child's time at reference-host speed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import runpy

import hostspeed


def main(argv: list[str]) -> None:
    if len(argv) < 2 or (argv[1] in ("-m", "-c") and len(argv) < 3):
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    report, mode, rest = argv[0], argv[1], argv[2:]
    probe = hostspeed.start()
    try:
        if mode == "-m":
            sys.argv = rest
            runpy.run_module(rest[0], run_name="__main__", alter_sys=True)
        elif mode == "-c":
            sys.argv = ["-c", *rest[1:]]
            exec(compile(rest[0], "<string>", "exec"), {"__name__": "__main__"})
        else:
            sys.argv = [mode, *rest]
            runpy.run_path(mode, run_name="__main__")
    finally:
        sys.stdout.flush()
        probe.stop()
        with open(report, "w", encoding="utf-8") as fh:
            json.dump({"probe_s": probe.probe_s, "factor": probe.factor()}, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
