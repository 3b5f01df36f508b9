#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric across runs.

    python3 bench/repeat.py --workload pipeline --seeds 1-10
    python3 bench/repeat.py --workload all --seeds 1-10 --json > summary.json

Runs happen one after another, each in its own process, with the
BENCHMARK.json run length unless --seconds is given. For each metric it
reports the median, the quartiles (`statistics.quantiles(values, n=4)`) and
the inter-quartile distance as a share of the median, next to the metric's
bound. It exits non-zero if any run failed or reported a failed operation.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    record = next(json.loads(line)["record"] for line in lines
                  if line.startswith('{"record"'))
    return record, json.loads(lines[-1])


def summarise(workload, seeds, seconds, trace):
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    runs = []
    for seed in seeds:
        record, result = run_once(workload, seed, seconds, trace)
        runs.append((record, result))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            if k in bounds or trace), file=sys.stderr)
    metrics = {}
    for name in runs[0][1]["metrics"]:
        vals = [res["metrics"][name]["value"] for _, res in runs]
        q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                       else vals * 3)
        metrics[name] = {"median": med, "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / med if med else None,
                         "bound": bounds.get(name),
                         "unit": runs[0][1]["metrics"][name]["unit"]}
    attempted = sum(res["attempted"] for _, res in runs)
    failed = sum(res["failed"] for _, res in runs)
    rec = runs[0][0]
    return {"workload": workload, "seeds": seeds, "seconds": seconds,
            "trace": trace, "workers": rec["workers"],
            "attempted": attempted, "failed": failed,
            "error_rate": failed / attempted, "metrics": metrics,
            "host": {k: rec[k] for k in ("nproc", "python", "numpy", "scipy",
                                         "machine", "commit")},
            "host_probe": [r["host_probe"] for r, _ in runs]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", action="store_true", help="print JSON summaries")
    args = ap.parse_args()
    names = ([w["name"] for w in SPEC["workloads"]] if args.workload == "all"
             else [args.workload])
    out = [summarise(n, parse_seeds(args.seeds), args.seconds, args.trace)
           for n in names]
    if args.json:
        print(json.dumps(out, indent=1))
    else:
        for s in out:
            print(f"{s['workload']}: error_rate {s['error_rate']} "
                  f"({s['failed']} of {s['attempted']})")
            for name, m in s["metrics"].items():
                share = "n/a" if m["iqr_share"] is None else f"{m['iqr_share']:.3f}"
                print(f"  {name:60s} median {m['median']:.6g} {m['unit']}  "
                      f"IQR/median {share}  bound {m['bound']}")
    return 0 if all(s["failed"] == 0 for s in out) else 1


if __name__ == "__main__":
    sys.exit(main())
