"""Record the expected outputs the benchmark checks against, into
``perfbench/golden.json``: the gate output without its timing text, the
stdout of each lattice command, and the digest of every session catalogue
entry. Run it only at a commit whose outputs are known to be right::

    python3 perfbench/record_golden.py
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=run.WORK))
    try:
        r = run.Runner(workdir)
        gate = r.cli(["verify", "all"])
        lattice = {f"{G} {H}": r.cli(["basis", G, H]) for G, H in run.LATTICE_CASES}
        session = r.child([str(run.BENCH / "session.py"), "--seed", "0", "--record"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    children = [gate, session, *lattice.values()]
    if any(c.status != 0 for c in children):
        for c in children:
            print(c.stderr, file=sys.stderr)
        return 1
    golden = {
        "gate": run.digest(run.gate_text(gate.stdout)),
        "lattice": {case: run.digest(c.stdout) for case, c in lattice.items()},
        "session": json.loads(session.stdout.splitlines()[-1]),
    }
    run.GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
