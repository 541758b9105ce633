"""burnfuse benchmark: three workloads, end-to-end metrics and a traced
per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload gate|lattice|session --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --all            # every workload, both modes

Each run prints one ``name value unit`` line per metric and, as its last
line, ``{"correct", "attempted", "failed", "metrics"}`` as JSON. Runs also
append a record with the environment (git revision, source digest, Python,
nproc, calibration loop time) to ``.perfbench/runs.jsonl``. Workloads,
metrics and the layer map are described in ``perfbench/README.md``.

Every burnfuse process is a child started from here, one at a time, with
``PYTHONPATH=src``, ``PYTHONDONTWRITEBYTECODE=1``, a pinned
``PYTHONHASHSEED`` and an empty working directory, because ``cli.run``
reads ``burnfuse.toml`` from the working directory.

End-to-end times are reported at reference-host speed: timed children run
under ``child.py``, whose host-speed probe (``hostspeed.py``) samples how
fast the shared host runs while the child works, and each child's time is
scaled by it. Raw wall times are kept in the run record.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
GOLDEN = BENCH / "golden.json"
PY = sys.executable

WORKLOADS = ("gate", "lattice", "session")
LATTICE_CASES = (("S4", "S4"), ("A4", "A5"), ("A5", "A4"), ("A5", "C2"),
                 ("D12", "S4"), ("S3", "A5"))
HASH_SEED = "0"
IMPORT_PROBES = 4
CALIBRATION_ITERATIONS = 6_000_000
# Every child is killed at this many seconds after the run started, so a
# hung program still ends the run well within its 180 s limit.
RUN_DEADLINE_S = 165.0
END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_p99_ms", "ms"), ("peak_rss_mib", "MiB"))
# Measured and recorded, but not an end-to-end metric: the wall time at the
# host's speed of the moment spreads from run to run past any bound.
RECORDED = (("raw_wall_s", "s"),)
_TIMING = re.compile(r" \(\d+\.\d+s / budget \d+s\)$")


@dataclass
class Child:
    status: int
    wall_s: float
    stdout: str
    stderr: str
    maxrss_mib: float
    ready_s: float | None = None
    # wall_s without the probe's own time, at reference-host speed; equal to
    # wall_s when the child ran without the probe.
    norm_s: float = 0.0


class Runner:
    """Starts burnfuse children one at a time in an empty working directory
    and accounts for their failures."""

    def __init__(self, workdir: Path, hash_seed: str = HASH_SEED,
                 probe: bool = False):
        self.workdir = workdir
        self.probe = probe
        self.cwd = workdir / "cwd"
        self.cwd.mkdir()
        self.hash_seed = hash_seed
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.notes: dict = {}

    def env(self) -> dict:
        env = dict(os.environ)
        env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
                   PYTHONHASHSEED=self.hash_seed)
        return env

    def child(self, argv: list[str], wait_ready: bool = False) -> Child:
        """Run one child to completion. With wait_ready, also time the
        first output line, which the session child prints after set-up."""
        err_path = self.workdir / "stderr.txt"
        report = self.workdir / "probe.json"
        if self.probe:
            report.unlink(missing_ok=True)
            argv = [str(BENCH / "child.py"), str(report), *argv]
        with open(err_path, "w+", encoding="utf-8") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([PY, *argv], cwd=self.cwd, env=self.env(),
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.PIPE, stderr=err,
                                    text=True)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()),
                                    proc.kill)
            timer.start()
            try:
                ready_s = None
                head = ""
                if wait_ready:
                    head = proc.stdout.readline()
                    ready_s = time.perf_counter() - start
                out = head + proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
                proc.stdout.close()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            err.seek(0)
            stderr = err.read()
        norm = wall
        if self.probe and report.is_file():
            probe = json.loads(report.read_text(encoding="utf-8"))
            norm = (wall - probe["probe_s"]) * probe["factor"]
        return Child(proc.returncode, wall, out, stderr,
                     usage.ru_maxrss / 1024.0, ready_s, norm)

    def fail(self, what: str, detail: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(f"{what}: {detail.strip()[-300:]}")

    def cli(self, args: list[str], trace_out: Path | None = None) -> Child:
        if trace_out is None:
            return self.child(["-m", "burnfuse.cli", *args])
        return self.child([str(BENCH / "tracer.py"), str(trace_out), "--", *args])


def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def gate_text(stdout: str) -> str:
    """The gate output without the per-criterion timing text."""
    return "\n".join(_TIMING.sub("", line) for line in stdout.splitlines())


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def keep_going(started: float, seconds: float, last_rep_s: float) -> bool:
    """Start another repetition while it would end no later than half a
    repetition past the measuring time."""
    return time.perf_counter() - started + last_rep_s / 2 < seconds


# -- workloads: one repetition each ------------------------------------------

def gate_rep(r: Runner, seed: int, gold: dict, trace_out: Path | None = None) -> list[Child]:
    c = r.cli(["--seed", str(seed), "verify", "all"], trace_out)
    r.attempted += 1
    if c.status != 0:
        r.fail("verify all", f"exit {c.status}: {c.stderr or c.stdout}")
    elif digest(gate_text(c.stdout)) != gold["gate"]:
        r.fail("verify all", "output differs from golden:\n" + c.stdout)
    return [c]


def lattice_rep(r: Runner, seed: int, gold: dict, trace_dir: Path | None = None) -> list[Child]:
    out = []
    for i, (G, H) in enumerate(LATTICE_CASES):
        trace_out = None if trace_dir is None else trace_dir / f"lattice{i}.json"
        c = r.cli(["basis", G, H], trace_out)
        r.attempted += 1
        if c.status != 0:
            r.fail(f"basis {G} {H}", f"exit {c.status}: {c.stderr}")
        elif digest(c.stdout) != gold["lattice"][f"{G} {H}"]:
            r.fail(f"basis {G} {H}", "output differs from golden")
        out.append(c)
    return out


def session_rep(r: Runner, seed: int, trace_out: Path | None = None,
                ops: int | None = None) -> tuple[Child, dict]:
    argv = [str(BENCH / "session.py"), "--seed", str(seed)]
    if trace_out is not None:
        argv += ["--trace", str(trace_out)]
    if ops is not None:
        argv += ["--ops", str(ops)]
    c = r.child(argv, wait_ready=True)
    try:
        result = json.loads(c.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"attempted": 1, "failed": 1, "latencies": [], "digest": "",
                  "errors": []}
    r.attempted += result["attempted"]
    if "setup_factor" in result:  # the set-up, at reference-host speed
        c.ready_s = (c.ready_s - result["setup_probe_s"]) * result["setup_factor"]
    if c.status != 0:
        r.fail("session", f"exit {c.status}: {c.stderr}", max(1, result["failed"]))
    elif result["failed"]:
        r.fail("session", "; ".join(result["errors"]), result["failed"])
    return c, result


# -- end-to-end measurement ---------------------------------------------------

def import_probes(r: Runner) -> list[float]:
    """Cold starts of the CLI: interpreter start and every import."""
    walls = []
    for _ in range(IMPORT_PROBES):
        c = r.child(["-c", "import burnfuse.cli"])
        if c.status != 0:
            r.attempted += 1
            r.fail("import burnfuse.cli", c.stderr)
        walls.append(c.norm_s)
    return walls


def measure(r: Runner, workload: str, seed: int, seconds: float) -> dict:
    """Repeat the workload's unit of work for about ``seconds`` and report,
    for each metric, the median over repetitions. A cold workload's set-up
    is the CLI import, probed before each repetition so that the probes
    spread over the run."""
    gold = golden()
    reps: list[dict] = []
    setups: list[float] = []
    rss = 0.0
    started = time.perf_counter()
    while not reps or keep_going(started, seconds, reps[-1]["raw_wall_s"]):
        if workload == "session":
            c, result = session_rep(r, seed)
            children = [c]
            setups.append(c.ready_s)
            latencies = result["latencies"]
        else:
            setups += import_probes(r)
            rep = gate_rep if workload == "gate" else lattice_rep
            children = rep(r, seed, gold)
            latencies = [c.norm_s for c in children]
        rss = max([rss] + [c.maxrss_mib for c in children])
        if r.failed or not latencies:
            break
        reps.append({
            "raw_wall_s": sum(c.wall_s for c in children),
            "wall_s": sum(c.norm_s for c in children),
            "ops_per_s": len(latencies) / sum(latencies),
            "op_p50_ms": percentile(latencies, 0.50) * 1000,
            "op_p99_ms": percentile(latencies, 0.99) * 1000,
        })
    r.notes.update(reps=reps, setups=setups)
    if not reps:
        return {}
    metrics = {name: statistics.median(rep[name] for rep in reps)
               for name in reps[0]}
    metrics.update(setup_s=statistics.median(setups), peak_rss_mib=rss)
    r.notes["recorded"] = {name: metrics[name] for name, _ in RECORDED}
    return {name: metrics[name] for name, _ in END_TO_END}


def measure_traced(r: Runner, workload: str, seed: int) -> dict:
    """One untraced and one traced repetition of the workload's fixed work;
    the per-layer metrics come from the traced one."""
    gold = golden()
    tdir = r.workdir / "trace"
    tdir.mkdir()
    if workload == "gate":
        plain = gate_rep(r, seed, gold)
        traced = gate_rep(r, seed, gold, tdir / "gate.json")
    elif workload == "lattice":
        plain = lattice_rep(r, seed, gold)
        traced = lattice_rep(r, seed, gold, tdir)
    else:
        plain = [session_rep(r, seed)[0]]
        traced = [session_rep(r, seed, tdir / "session.json")[0]]
    raw = [json.loads(p.read_text(encoding="utf-8"))
           for p in sorted(tdir.glob("*.json"))]
    if len(raw) != len(traced):
        r.fail("trace", "a traced child wrote no counters")
        return {}
    overhead = sum(c.wall_s for c in traced) - sum(c.wall_s for c in plain)
    return tracer.aggregate(raw, overhead)


# -- environment record -------------------------------------------------------

def calibration_s() -> float:
    """Time of a fixed pure-Python loop: host speed, recorded next to each
    run so that drift between runs shows. Not a metric of the program."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i
    return time.perf_counter() - start


def environment() -> dict:
    rev = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {"git_revision": rev, "src_sha256": src.hexdigest()[:16],
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "calibration_s": calibration_s()}


# -- entry points -------------------------------------------------------------

def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        r = Runner(workdir, probe=not trace)
        if trace:
            metrics = measure_traced(r, workload, seed)
            units = {name: unit for name, unit, _ in tracer.metric_names()}
        else:
            metrics = measure(r, workload, seed, seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment()
    for err in r.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"# {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    correct = r.failed == 0 and bool(metrics)
    print(f"# attempted={r.attempted} failed={r.failed} "
          f"error_rate={r.failed / max(r.attempted, 1):.4f}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for name, value in r.notes.get("recorded", {}).items():
        print(f"# {name} {value:.6g} {dict(RECORDED)[name]} (recorded, not gated)")
    result = {"correct": correct, "attempted": max(r.attempted, 1),
              "failed": r.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    with open(WORK / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"workload": workload, "seed": seed,
                             "seconds": seconds, "trace": int(trace),
                             "env": env, "notes": r.notes, **result}) + "\n")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload untraced, then traced")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "burnfuse" / "cli.py").is_file():
        print(f"error: no burnfuse sources under {SRC}", file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    if args.all:
        ok = True
        for trace in (False, True):
            for workload in WORKLOADS:
                result = run_one(workload, args.seed, args.seconds, trace)
                ok = ok and result["correct"]
        return 0 if ok else 1
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
