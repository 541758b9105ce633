"""Determinism self-check of the benchmark's workloads.

1. A small session and one lattice command run under PYTHONHASHSEED 0 and 1
   and must give equal result digests, with no failed operation.
2. The same two, traced, run twice and must give identical counts (every
   per-layer metric that is not a time).

Run from the root of a checkout::

    python3 perfbench/check_determinism.py
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json
import shutil
import tempfile
from pathlib import Path

import run
import tracer

SESSION_SEED = 7
SESSION_OPS = 200
LATTICE_CASE = ("D12", "S4")


def digests(workdir: Path, hash_seed: str) -> tuple[str, str, int]:
    workdir.mkdir()
    r = run.Runner(workdir, hash_seed)
    _, result = run.session_rep(r, SESSION_SEED, ops=SESSION_OPS)
    lattice = r.cli(["basis", *LATTICE_CASE])
    if lattice.status != 0:
        r.fail("basis", lattice.stderr)
    return result["digest"], run.digest(lattice.stdout), r.failed


def traced_counts(workdir: Path) -> dict:
    workdir.mkdir()
    r = run.Runner(workdir)
    run.session_rep(r, SESSION_SEED, workdir / "session.json", ops=SESSION_OPS)
    r.cli(["basis", *LATTICE_CASE], workdir / "lattice.json")
    raw = [json.loads((workdir / f).read_text(encoding="utf-8"))
           for f in ("session.json", "lattice.json")]
    metrics = tracer.aggregate(raw, overhead_s=0.0)
    units = {name: unit for name, unit, _ in tracer.metric_names()}
    return {k: v for k, v in metrics.items() if units[k] != "s"}


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="determinism-", dir=run.WORK))
    ok = True
    try:
        d0 = digests(base / "hash0", "0")
        d1 = digests(base / "hash1", "1")
        golden = run.golden()["lattice"][" ".join(LATTICE_CASE)]
        checks = [
            ("session digest equal under PYTHONHASHSEED 0 and 1", d0[0] == d1[0]),
            ("lattice digest equal under PYTHONHASHSEED 0 and 1", d0[1] == d1[1]),
            ("lattice output matches golden", d0[1] == golden),
            ("no failed operation", d0[2] == 0 and d1[2] == 0),
        ]
        c0 = traced_counts(base / "trace0")
        c1 = traced_counts(base / "trace1")
        diff = sorted(k for k in c0 if c0[k] != c1[k])
        checks.append((f"traced counts identical over two runs ({len(c0)} counts)",
                       not diff))
    finally:
        shutil.rmtree(base, ignore_errors=True)
    for name, passed in checks:
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    for k in diff:
        print(f"      {k}: {c0[k]} != {c1[k]}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
