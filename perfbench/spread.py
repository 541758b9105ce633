"""Run one workload under several seeds and report, for each end-to-end
metric, the median and the spread (third minus first quartile, over the
median) of the per-run values, against the bounds in BENCHMARK.json::

    python3 perfbench/spread.py --workload gate --seeds 1-10
    python3 perfbench/spread.py --workload gate --seeds 1-10 --save perfbench/baseline.json

``--save`` adds the runs, each with its environment record, and the summary
to a JSON file under the workload's name.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import statistics
import subprocess
from pathlib import Path

import run


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values),
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values),
                     "bound": bounds.get(name)}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=run.WORKLOADS, required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--save", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        with open(run.WORK / "runs.jsonl", encoding="utf-8") as fh:
            record = json.loads(fh.readlines()[-1])
        runs.append(record)
        print(f"seed {seed}: exit {proc.returncode} correct={result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
              + f" calibration_s={record['env']['calibration_s']:.3f}", flush=True)
    summary = summarize(runs, bounds)
    for name, s in summary.items():
        flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- wide"
        print(f"{name:14s} median {s['median']:.4g}  spread {s['spread']:.3f}"
              f"  bound {s['bound']}{flag}")
    if args.save:
        path = Path(args.save)
        saved = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        saved[args.workload] = {"seconds": seconds, "summary": summary, "runs": runs}
        path.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
