#!/usr/bin/env python3
"""Benchmark of furstlab: one seeded workload per run.

    python3 bench/run.py --workload pipeline --seed 7 --seconds 55 --trace 0

Run from anywhere; the program is imported from this checkout's `src/`.
Set-up (a fresh import of furstlab, the presets and the generated inputs) is
repeated several times (see SETUP_MIN). Rounds of the workload's operations then repeat
on the same inputs while another round, as long as the last one, still ends
within --seconds; so a run stays within its time. Every operation's output is
checked against bench/expected.json after its round; checking is not timed.

With --trace 0 the metrics are the end-to-end ones: the upper quartile over
rounds of wall and CPU time (see upper_quartile), the median set-up time, and
peak resident memory. With --trace 1 the first half of the time runs plain
rounds and the second half traced rounds (see spans.py); the metrics are the
per-layer ones.

Output: one line per metric, one JSON run-record line, and as the last line a
JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs the workloads one after another in this process.
"""

import os

# One thread per BLAS call: the workloads' own `workers` setting is the only
# source of parallelism. Must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# Set-up repeats: at least SETUP_MIN, and more (up to SETUP_MAX) while they
# have taken under SETUP_SECONDS, so a set-up of a tenth of a second still
# gets a steady median.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 1.0


def upper_quartile(values) -> float:
    """Third quartile of the values, interpolated between them.

    A shared host runs this program at two speeds: mostly at its usual one,
    and in bursts of tens of seconds up to about 1.6 times faster. A burst over half
    a run moves the median round to the fast speed; the upper quartile keeps
    the usual speed until a burst covers three quarters of the run, so runs
    of the same code agree more closely."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def import_furstlab():
    """A fresh import of furstlab from this checkout's src/."""
    for name in [m for m in sys.modules
                 if m == "furstlab" or m.startswith("furstlab.")]:
        del sys.modules[name]
    fl = importlib.import_module("furstlab")
    if not Path(fl.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"furstlab imported from {fl.__file__}, not {SRC}")
    return fl


def host_probe() -> dict:
    """Fixed numpy and pure-Python loops; they show host slowdowns apart
    from the program."""
    t0 = time.perf_counter()
    x = np.linspace(0.0, 1.0, 1 << 18)
    for _ in range(40):
        x = np.sqrt(x * x + 1.0) - 1.0
    t1 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    t2 = time.perf_counter()
    return {"numpy_s": t1 - t0, "python_s": t2 - t1}


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git; "unknown" for
    a checkout that is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _plain(obj):
    """JSON-ready form of a result object; floats keep every digit."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if hasattr(obj, "to_dict"):
        return _plain(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def digest(out: workloads.Output) -> str:
    text = out.text
    if text is None:
        text = json.dumps(_plain(out.value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_expected(workload: str, size: str) -> dict:
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        exp = json.load(fh)
    if size != "full":
        return {"ops": {}, "digests": {}}
    return {"ops": exp["ops"].get(workload, {}),
            "digests": exp["digests"].get(workload, {})}


def check(wl, expected_ops: dict, op: str, out: workloads.Output) -> list:
    """Mismatches of an output against its recorded verdict and numbers."""
    verdict, numbers = wl.summarize(op, out.value)
    exp = expected_ops.get(op)
    if exp is None:
        return []
    bad = []
    if exp.get("verdict") != verdict:
        bad.append(f"{op}: verdict {verdict!r}, recorded {exp.get('verdict')!r}")
    for key, (value, tol) in exp.get("numbers", {}).items():
        got = numbers.get(key)
        if got is None or not abs(got - value) <= tol:
            bad.append(f"{op}: {key} = {got}, recorded {value} +- {tol}")
    return bad


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_round(ops):
    """Run every operation once; wall and CPU time cover the operations
    only."""
    outputs, errors = {}, {}
    c0, t0 = cpu_seconds(), time.perf_counter()
    for name, thunk in ops:
        try:
            outputs[name] = thunk()
        except Exception as exc:  # an operation that raises counts as failed
            errors[name] = "".join(traceback.format_exception_only(exc)).strip()
            traceback.print_exc(file=sys.stderr)
    t1, c1 = time.perf_counter(), cpu_seconds()
    return {"wall": t1 - t0, "cpu": c1 - c0, "outputs": outputs,
            "errors": errors}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    wl = workloads.WORKLOADS[name]
    sz = wl.sizes[size]
    expected = load_expected(name, size)
    probe_start = host_probe()

    setup_times = []
    while len(setup_times) < SETUP_MIN or (sum(setup_times) < SETUP_SECONDS
                                            and len(setup_times) < SETUP_MAX):
        t0 = time.perf_counter()
        fl = import_furstlab()
        state = wl.setup(fl, seed, sz)
        setup_times.append(time.perf_counter() - t0)
    ops = wl.ops(fl, state, sz)

    def review(rnd):
        """Check a round's outputs, untimed, and keep only what the result
        needs."""
        outputs = rnd.pop("outputs")
        rnd["problems"] = [f"{op}: raised {err}"
                           for op, err in rnd.pop("errors").items()]
        rnd["failed"] = len(rnd["problems"])
        for op, out in outputs.items():
            bad = check(wl, expected["ops"], op, out)
            rnd["failed"] += bool(bad)
            rnd["problems"] += bad
        rnd["digests"] = {op: digest(out) for op, out in outputs.items()}
        rnd["summaries"] = {op: wl.summarize(op, out.value)
                            for op, out in outputs.items()}
        return rnd

    start = time.perf_counter()
    plain_until = start + (seconds / 2 if trace else seconds)
    plain = [review(run_round(ops))]
    while time.perf_counter() + plain[-1]["wall"] < plain_until:
        plain.append(review(run_round(ops)))
    traced, layer = [], []
    if trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            while not traced or (time.perf_counter() + traced[-1]["wall"]
                                 < start + seconds):
                traced.append(review(run_round(ops)))
                layer.append(spans.layer_metrics(tracer.take()))
        finally:
            tracer.uninstall()
    probe_end = host_probe()

    rounds = plain + traced
    attempted = len(ops) * len(rounds)
    failed = sum(r["failed"] for r in rounds)
    first = plain[0]
    recorded = expected["digests"].get(str(seed)) or first["digests"]
    digest_match = [sum(rnd["digests"].get(op) == d for op, d in recorded.items())
                    for rnd in traced]

    if trace:
        metrics = {k: statistics.median(r[k] for r in layer) for k in layer[0]}
        metrics["reporting.digest_match"] = statistics.median(digest_match)
        metrics["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                       - statistics.median(r["wall"] for r in plain))
        metrics["host.probe_numpy_s"] = (probe_start["numpy_s"] + probe_end["numpy_s"]) / 2
        metrics["host.probe_python_s"] = (probe_start["python_s"] + probe_end["python_s"]) / 2
    else:
        metrics = {
            "wall_s": upper_quartile(r["wall"] for r in plain),
            "setup_s": statistics.median(setup_times),
            "cpu_s": upper_quartile(r["cpu"] for r in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    record = {
        "workload": name, "seed": seed, "size": size, "workers": wl.workers,
        "seconds": seconds, "trace": int(trace), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": importlib.import_module("scipy").__version__,
        "machine": platform.machine(), "commit": git_commit(),
        "setup_s": setup_times, "rounds": len(plain), "traced_rounds": len(traced),
        "wall_s": [r["wall"] for r in plain], "cpu_s": [r["cpu"] for r in plain],
        "host_probe": {"start": probe_start, "end": probe_end},
        "input_digest": state["input_digest"], "digests": first["digests"],
        "summaries": first["summaries"], "error_rate": failed / attempted,
        "problems": [p for r in rounds for p in r["problems"]][:20],
    }
    return {"record": record, "correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def units() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def emit(res: dict) -> dict:
    """Print the metric lines and the run record; return the result object."""
    unit = units()
    metrics = {k: {"value": v, "unit": unit[k]} for k, v in res["metrics"].items()}
    for k, m in metrics.items():
        print(f"{res['record']['workload']}  {k} = {m['value']} {m['unit']}")
    print(f"{res['record']['workload']}  error_rate = {res['record']['error_rate']}"
          f" ({res['failed']} of {res['attempted']} operations)")
    print(json.dumps({"record": res["record"]}, sort_keys=True))
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-tests' size; no recorded checks")
    args = ap.parse_args(argv)

    if not (SRC / "furstlab" / "__init__.py").is_file():
        print(f"error: no furstlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    importlib.import_module("scipy.spatial")   # dependency, loaded before set-up

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for n in names:
        results.append(emit(run_workload(n, args.seed, args.seconds,
                                         bool(args.trace), args.size)))
        if len(names) > 1:
            print(json.dumps(results[-1]))
    final = results[0]
    if len(names) > 1:
        final = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "metrics": {f"{n}/{k}": v for n, r in zip(names, results)
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
