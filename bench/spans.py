"""Span tracing for the benchmark's traced rounds, installed from outside the
program.

`Tracer.install` wraps furstlab's public functions at every module where
furstlab binds them (for example `furstlab.experiments.sample_boundary` as
well as `furstlab.engine.sample_boundary`), the `EmpiricalMeasure` and
`ExperimentReport` methods the workloads reach, and `run_blocks` together
with the block function passed to it. Each call records a span: its name,
start, end, parent span and counts. Spans stay in memory; `layer_metrics`
turns one round's spans into the per-layer metrics. Nothing is wrapped
until `install` runs, and `uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional

# defining module -> public functions wrapped at every binding site
FUNCTIONS = {
    "furstlab.engine": ("sample_boundary", "lyapunov_estimate",
                        "entropy_slope_dimension", "local_dimension"),
    "furstlab.experiments": ("exp_main_theorem", "exp_projection_entropy",
                             "exp_uniform_entropy_dim",
                             "exp_boundary_convergence",
                             "exp_direction_cocycle"),
    "furstlab.checks": ("certify", "random_walk_entropy", "diophantine_probe"),
}
METHODS = {
    ("furstlab.dyadic", "EmpiricalMeasure"): ("cell_keys", "entropy",
                                              "components"),
    ("furstlab.reporting", "ExperimentReport"): ("to_json",),
}


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _layer(module: str) -> str:
    return module.split(".", 1)[1].lstrip("_")


def _sample_boundary_counts(args, cloud):
    """Stopping-length counts; `padded_steps` is what a kernel that keeps
    every row of a block until its slowest row stops would run."""
    block_size = sys.modules["furstlab._parallel"].BLOCK_SIZE
    steps = cloud.steps
    padded = sum(len(steps[i:i + block_size]) * int(steps[i:i + block_size].max())
                 for i in range(0, len(steps), block_size))
    return {"points": len(steps), "steps": int(steps.sum()),
            "steps_max": int(steps.max()), "padded_steps": padded}


# span name -> counts taken from the bound arguments and the result
COUNTERS = {
    "engine.sample_boundary": _sample_boundary_counts,
    "engine.lyapunov_estimate":
        lambda a, out: {"steps": a["n"] * a["trials"]},
    "experiments.exp_direction_cocycle":
        lambda a, out: {"steps": a["n"] * a["trials"]},
    "experiments.exp_projection_entropy":
        lambda a, out: {"component_directions":
                        out.summary.get("resolved", 0) * a["directions"]},
    "checks.diophantine_probe":
        lambda a, out: {"pairs": sum(r["pairs"] for r in out.rows)},
    "dyadic.cell_keys": lambda a, out: {"points": a["self"].size},
    "dyadic.entropy": lambda a, out: {"points": a["self"].size},
    "dyadic.components": lambda a, out: {"components": len(out)},
}


class Tracer:
    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> List[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None):
        """Record a span; its parent is the caller's innermost open span on
        this thread unless given (block functions run on pool threads)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1].sid
        with self._lock:
            sp = Span(next(self._ids), name, parent, 0.0)
        stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(sp)

    def take(self) -> List[Span]:
        """The spans recorded since the last take."""
        with self._lock:
            out, self.spans = self.spans, []
        return out

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn, counter=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                out = fn(*args, **kwargs)
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                sp.counts.update(counter(bound.arguments, out))
            return out
        return wrapper

    def _wrap_run_blocks(self, run_blocks):
        sig = inspect.signature(run_blocks)

        @functools.wraps(run_blocks)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            fn = bound.arguments["fn"]
            with self.span("parallel.run_blocks") as sp:
                def block(*a, _parent=sp.sid):
                    with self.span("parallel.block", parent=_parent):
                        return fn(*a)
                bound.arguments["fn"] = block
                out = run_blocks(*bound.args, **bound.kwargs)
            sp.counts["workers"] = bound.arguments["workers"]
            return out
        return wrapper

    def _rebind(self, original, replacement) -> None:
        """Point every furstlab module attribute bound to `original` at
        `replacement`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "furstlab" and not mod_name.startswith("furstlab."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> None:
        par = sys.modules["furstlab._parallel"]
        for mod_name, names in FUNCTIONS.items():
            mod = sys.modules[mod_name]
            for fname in names:
                span = f"{_layer(mod_name)}.{fname}"
                orig = getattr(mod, fname)
                self._rebind(orig, self._wrap(span, orig, COUNTERS.get(span)))
        self._rebind(par.run_blocks, self._wrap_run_blocks(par.run_blocks))
        for (mod_name, cls_name), names in METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            for meth in names:
                span = f"{_layer(mod_name)}.{meth}"
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(span, orig, COUNTERS.get(span)))
                self._undo.append((cls, meth, orig))

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics from one round's spans
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total, end = 0.0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: Dict[int, list] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        kids = [(max(c.start, sp.start), min(c.end, sp.end))
                for c in children.get(sp.sid, ())]
        out[sp.sid] = sp.duration - _union_length([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans: List[Span]) -> Dict[str, float]:
    by_id = {sp.sid: sp for sp in spans}

    def outermost(name):
        """Spans of `name` not nested inside another span of `name`."""
        out = []
        for sp in spans:
            if sp.name != name:
                continue
            p = sp.parent
            while p is not None and by_id[p].name != name:
                p = by_id[p].parent
            if p is None:
                out.append(sp)
        return out

    def secs(name):
        return sum(sp.duration for sp in outermost(name))

    def count(name, key):
        return sum(sp.counts.get(key, 0) for sp in outermost(name))

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    selfs = self_times(spans)
    m: Dict[str, float] = {}

    sb = "engine.sample_boundary"
    steps = count(sb, "steps")
    m[f"{sb}.s"] = secs(sb)
    m[f"{sb}.ns_per_step"] = ratio(secs(sb), steps, 1e9)
    m[f"{sb}.useful_step_ratio"] = ratio(steps, count(sb, "padded_steps"))
    m[f"{sb}.steps_mean"] = ratio(steps, count(sb, "points"))
    m[f"{sb}.steps_max"] = max((sp.counts.get("steps_max", 0)
                                for sp in outermost(sb)), default=0)
    ly = "engine.lyapunov_estimate"
    m[f"{ly}.s"] = secs(ly)
    m[f"{ly}.ns_per_step"] = ratio(secs(ly), count(ly, "steps"), 1e9)
    for name in ("engine.entropy_slope_dimension", "engine.local_dimension"):
        m[f"{name}.s"] = secs(name)

    ck, en, co = "dyadic.cell_keys", "dyadic.entropy", "dyadic.components"
    m[f"{ck}.s"] = secs(ck)
    m[f"{ck}.calls"] = len(outermost(ck))
    m[f"{ck}.ns_per_point"] = ratio(secs(ck), count(ck, "points"), 1e9)
    m[f"{en}.s"] = secs(en)
    m[f"{en}.calls"] = len(outermost(en))
    m[f"{en}.s_per_level_per_Mpt"] = ratio(secs(en), count(en, "points"), 1e6)
    m[f"{co}.s"] = secs(co)
    m[f"{co}.calls"] = len(outermost(co))
    m[f"{co}.per_s"] = ratio(count(co, "components"), secs(co))

    mt = "experiments.exp_main_theorem"
    m[f"{mt}.self_s"] = sum(selfs[sp.sid] for sp in spans if sp.name == mt)
    pe = "experiments.exp_projection_entropy"
    m[f"{pe}.s"] = secs(pe)
    m[f"{pe}.us_per_component_direction"] = ratio(
        sum(selfs[sp.sid] for sp in spans if sp.name == pe),
        count(pe, "component_directions"), 1e6)
    for name in ("experiments.exp_uniform_entropy_dim",
                 "experiments.exp_boundary_convergence"):
        m[f"{name}.s"] = secs(name)
    dc = "experiments.exp_direction_cocycle"
    m[f"{dc}.s"] = secs(dc)
    m[f"{dc}.ns_per_step"] = ratio(secs(dc), count(dc, "steps"), 1e9)

    for name in ("checks.certify", "checks.random_walk_entropy",
                 "checks.diophantine_probe"):
        m[f"{name}.s"] = secs(name)
    dp = "checks.diophantine_probe"
    m[f"{dp}.pairs_per_s"] = ratio(count(dp, "pairs"), secs(dp))

    calls = [sp for sp in spans if sp.name == "parallel.run_blocks"]
    blocks = {c.sid: [sp.duration for sp in spans
                      if sp.name == "parallel.block" and sp.parent == c.sid]
              for c in calls}
    m["parallel.blocks"] = sum(len(b) for b in blocks.values())
    m["parallel.busy_fraction"] = ratio(
        sum(sum(b) for b in blocks.values()),
        sum(c.duration * c.counts.get("workers", 1) for c in calls))
    m["parallel.block_s_max_over_median"] = max(
        (max(b) / statistics.median(b) for b in blocks.values() if len(b) > 1),
        default=0.0)

    m["reporting.to_json.s"] = secs("reporting.to_json")
    return m
