"""The benchmark's two workloads: `pipeline`, and `components`, which runs
three groups of operations (parts) one after another.

Each workload builds its inputs from the workload seed in `setup`, lists the
operations one round runs in `ops`, and reduces an operation's output to the
verdict and the summary numbers the benchmark checks in `summarize`. The
program only ever sees the generated inputs: systems from the presets and
program seeds drawn from the workload seed.

Operations look furstlab's functions up on their modules at call time, so a
traced round sees the wrapped functions (see spans.py).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np


@dataclass
class Output:
    """What one operation returned, plus its report text when the operation
    serialised one (the serialisation is part of the timed work)."""

    value: Any
    text: Optional[str] = None


def _report(rep) -> Output:
    return Output(rep, rep.to_json())


def program_seeds(seed: int, k: int) -> List[int]:
    """k program seeds drawn from the workload seed."""
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=k)]


def _fingerprint(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


@dataclass
class Workload:
    name: str
    workers: int
    sizes: Dict[str, dict]
    setup: Callable[[Any, int, dict], dict]
    ops: Callable[[Any, dict, dict], List[Tuple[str, Callable[[], Output]]]]
    summarize: Callable[[str, Any], Tuple[Optional[str], Dict[str, float]]]


# ---------------------------------------------------------------------------
# pipeline: `furstlab report`, the user's headline path
# ---------------------------------------------------------------------------

def _pipeline_setup(fl, seed, size):
    budget = fl.PipelineBudget().small(size["boundary_samples"])
    (s,) = program_seeds(seed, 1)
    return {"system": fl.get_preset("twist"), "budget": budget, "seed": s,
            "input_digest": _fingerprint(s, budget)}


def _pipeline_ops(fl, st, size):
    return [("main_theorem", lambda: _report(fl.experiments.exp_main_theorem(
        st["system"], st["budget"], seed=st["seed"], workers=1)))]


def _pipeline_summarize(op, rep):
    s = rep.summary
    return rep.verdict, {"dim_slope": s["dim"]["slope"],
                         "chi": s["chi"]["value"],
                         "delta": s["delta"]["value"]}


# ---------------------------------------------------------------------------
# part "cloud": dyadic entropy work on one sampled cloud
# ---------------------------------------------------------------------------

def _cloud_setup(fl, seed, size):
    s_cloud, s_pe, s_ue = program_seeds(seed, 3)
    cloud = fl.engine.sample_boundary(fl.get_preset("twist"), 40.0,
                                      size["cloud_points"], seed=s_cloud,
                                      workers=1)
    return {"measure": cloud.measure, "s_pe": s_pe, "s_ue": s_ue,
            "input_digest": _fingerprint(cloud.measure.points, s_pe, s_ue)}


def _cloud_ops(fl, st, size):
    nu = st["measure"]
    ex = fl.experiments
    return [
        ("projection_entropy", lambda: _report(ex.exp_projection_entropy(
            nu, m=8, levels=size["pe_levels"], directions=size["directions"],
            seed=st["s_pe"], comps_per_level=size["pe_comps"]))),
        ("uniform_entropy_dim", lambda: _report(ex.exp_uniform_entropy_dim(
            nu, m=8, levels=size["ue_levels"], seed=st["s_ue"],
            comps_per_level=size["ue_comps"],
            min_component_points=size["ue_min_points"]))),
        ("entropy_slope", lambda: Output(fl.engine.entropy_slope_dimension(
            nu, (2, 12)))),
    ]


def _cloud_summarize(op, out):
    if op == "projection_entropy":
        return out.verdict, {"gamma_hat": out.summary.get("gamma_hat")}
    if op == "uniform_entropy_dim":
        return out.verdict, {"fraction": out.summary["fraction"]}
    return None, {"dim_slope": out.value}


# ---------------------------------------------------------------------------
# part "walks": fixed-length batched walks, no stopping rule.
# workers=1: on a 2-core shared host a 2-thread walk's CPU time depends on
# whether the other core is free (see README.md), so it is not timed here.
# ---------------------------------------------------------------------------

def _walks_setup(fl, seed, size):
    s_ly, s_bc = program_seeds(seed, 2)
    return {"system": fl.get_preset("twist"), "s_ly": s_ly, "s_bc": s_bc,
            "input_digest": _fingerprint(s_ly, s_bc)}


def _walks_ops(fl, st, size):
    return [
        ("lyapunov", lambda: Output(fl.engine.lyapunov_estimate(
            st["system"], n=size["chi_n"], trials=size["trials"],
            seed=st["s_ly"], workers=1))),
        ("boundary_convergence", lambda: _report(
            fl.experiments.exp_boundary_convergence(
                st["system"], size["n_values"], eta=0.2,
                trials=size["trials"], seed=st["s_bc"], workers=1))),
    ]


def _walks_summarize(op, out):
    if op == "lyapunov":
        return None, {"chi": out.value}
    frac = {r["n"]: r["fraction"] for r in out.rows}
    return out.verdict, {"fraction_n30": frac.get(30)}


# ---------------------------------------------------------------------------
# part "scalar": per-element Python work in sl2, words and checks
# ---------------------------------------------------------------------------

SCALAR_PRESETS = ("sanov", "discrete-gaussian", "twist")


def _scalar_setup(fl, seed, size):
    (s_coc,) = program_seeds(seed, 1)
    systems = {name: fl.get_preset(name) for name in SCALAR_PRESETS}
    return {"systems": systems, "s_coc": s_coc,
            "input_digest": _fingerprint(s_coc,
                                         *[s.fingerprint() for s in systems.values()])}


def _scalar_ops(fl, st, size):
    ck = fl.checks
    ops = []
    for name, sys_ in st["systems"].items():
        hrw_n, dio_n = size["nmax"][name]
        ops += [
            (f"{name}.random_walk_entropy",
             lambda s=sys_, n=hrw_n: Output(ck.random_walk_entropy(s, n))),
            (f"{name}.diophantine_probe",
             lambda s=sys_, n=dio_n: Output(ck.diophantine_probe(s, n))),
        ]
    ops.append(("twist.direction_cocycle", lambda: _report(
        fl.experiments.exp_direction_cocycle(
            st["systems"]["twist"], n=size["cocycle_n"], trials=8,
            seed=st["s_coc"]))))
    return ops


def _scalar_summarize(op, out):
    kind = op.split(".", 1)[1]
    if kind == "random_walk_entropy":
        return ("free" if out.free else "not-free"), {"h_rw": out.h_rw_estimate}
    if kind == "diophantine_probe":
        return None, {"fitted_c": out.fitted_c}
    return out.verdict, {"score": out.summary["score"]}


# ---------------------------------------------------------------------------
# components: the three groups above, one after another in each round
# ---------------------------------------------------------------------------

# part name -> (setup, ops, summarize) of a group of operations
PARTS = {
    "cloud": (_cloud_setup, _cloud_ops, _cloud_summarize),
    "walks": (_walks_setup, _walks_ops, _walks_summarize),
    "scalar": (_scalar_setup, _scalar_ops, _scalar_summarize),
}
# operations of the cloud and walks parts; the rest, named
# "<preset>.<operation>", belong to the scalar part
PART_OF = {"projection_entropy": "cloud", "uniform_entropy_dim": "cloud",
           "entropy_slope": "cloud", "lyapunov": "walks",
           "boundary_convergence": "walks"}


def _components_setup(fl, seed, size):
    """Each part's inputs, drawn from the workload seed as if it ran alone."""
    st = {part: setup(fl, seed, size[part])
          for part, (setup, _, _) in PARTS.items()}
    st["input_digest"] = _fingerprint(*(st[p]["input_digest"] for p in PARTS))
    return st


def _components_ops(fl, st, size):
    return [op for part, (_, ops, _) in PARTS.items()
            for op in ops(fl, st[part], size[part])]


def _components_summarize(op, out):
    return PARTS[PART_OF.get(op, "scalar")][2](op, out)


# Sizes: "full" is what the benchmark measures; "tiny" is for the self-tests.
# Why each full size: every checked verdict holds with a margin across seeds
# (see README.md), and a round takes 2-4 s on a 2-core host, so a run of
# --seconds 55 measures over a dozen rounds and its quartiles are steady.
WORKLOADS = {w.name: w for w in [
    Workload("pipeline", 1, {
        "full": {"boundary_samples": 24576},
        "tiny": {"boundary_samples": 4096},
    }, _pipeline_setup, _pipeline_ops, _pipeline_summarize),
    Workload("components", 1, {
        "full": {
            "cloud": {"cloud_points": 32768, "pe_levels": (2, 4),
                      "directions": 15, "pe_comps": 64, "ue_levels": (0, 1),
                      "ue_comps": 192, "ue_min_points": 1000},
            "walks": {"chi_n": 400, "trials": 2048, "n_values": (30, 40)},
            "scalar": {"nmax": {"sanov": (9, 5), "discrete-gaussian": (9, 5),
                                "twist": (8, 5)},
                       "cocycle_n": 2000},
        },
        "tiny": {
            "cloud": {"cloud_points": 32768, "pe_levels": (2, 3),
                      "directions": 8, "pe_comps": 4, "ue_levels": (0, 1),
                      "ue_comps": 8, "ue_min_points": 200},
            "walks": {"chi_n": 50, "trials": 2048, "n_values": (30,)},
            "scalar": {"nmax": {"sanov": (4, 3), "discrete-gaussian": (4, 3),
                                "twist": (3, 2)},
                       "cocycle_n": 200},
        },
    }, _components_setup, _components_ops, _components_summarize),
]}
