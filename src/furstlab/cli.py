"""Command-line surface: subcommand dispatch, preset listing, and report
emission.

Exit codes encode experiment verdicts so CI can gate on consistency:
0 consistent/complete, 2 inconsistent, 3 inconclusive, 1 error.
The environment variable FURST_SEED overrides the configured seed.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
from dataclasses import replace

from .checks import certify, diophantine_probe, random_walk_entropy
from .config import RunConfig, load_config, parse_flag
from .engine import (DEFAULT_TARGET_BITS, DIM_SCHEMES, delta_estimate,
                     dim_estimate, lyapunov_estimate, sample_boundary)
from .dyadic import C_INF, CP1, sphere_to_plane
from .errors import ConfigError, FurstlabError
from .experiments import (EXPERIMENTS, PipelineBudget, ThetaSpec,
                          check_theta_reach, check_transfer_k,
                          exp_main_theorem)
from .presets import get_preset, list_presets
from .reporting import ExperimentReport, VERDICT_CONSISTENT, rows_to_csv


def _effective_config(args) -> RunConfig:
    if args.config:
        cfg = load_config(args.config)
    else:
        preset = getattr(args, "preset", None) or "twist"
        cfg = RunConfig(get_preset(preset), preset)
    if args.seed is not None:
        cfg.seed = args.seed
    env_seed = os.environ.get("FURST_SEED")
    if env_seed is not None:
        try:
            cfg.seed = int(env_seed)
        except ValueError:
            raise FurstlabError(f"FURST_SEED must be an integer, got {env_seed!r}")
    if not (0 <= cfg.seed < 2 ** 64):
        raise FurstlabError("seed must fit in 64 unsigned bits")
    if args.out:
        cfg.out_path = args.out
    if args.format:
        cfg.out_format = args.format
    if args.workers is not None:
        cfg.workers = args.workers
    return cfg


def _emit(report: ExperimentReport, cfg: RunConfig) -> int:
    if cfg.out_format == "csv":
        text = rows_to_csv(report.rows)
    else:
        text = report.to_json()
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)
    return report.exit_code()


def _wrap(name: str, cfg: RunConfig, rows, summary) -> ExperimentReport:
    return ExperimentReport(
        name, cfg.system.tag(), dict(cfg.params), cfg.seed, rows, summary,
        VERDICT_CONSISTENT)


def cmd_check(cfg: RunConfig) -> int:
    rep = certify(cfg.system)
    return _emit(_wrap("check", cfg, [], rep.to_dict()), cfg)


def cmd_chi(cfg: RunConfig) -> int:
    n = cfg.param("n", 10_000, int)
    trials = cfg.param("trials", 1000, int)
    ly = lyapunov_estimate(cfg.system, n, trials, cfg.seed, cfg.workers)
    rows = [{"estimator": "op-norm", "value": ly.op_norm.value,
             "stderr": ly.op_norm.stderr},
            {"estimator": "telescoped", "value": ly.telescoped.value,
             "stderr": ly.telescoped.stderr}]
    summary = {"chi": ly.op_norm.value, "stderr": ly.op_norm.stderr,
               "estimators_agree": ly.consistent(), "n": n, "trials": trials}
    return _emit(_wrap("chi", cfg, rows, summary), cfg)


def cmd_hrw(cfg: RunConfig) -> int:
    nmax = cfg.param("nmax", 9, int)
    cap = cfg.param("cap", 2_000_000, int)
    table = random_walk_entropy(cfg.system, nmax, cap)
    rows = [{"n": n, "H_n": h, "H_n_over_n": hn} for n, h, hn in table.rows]
    summary = {"h_rw": table.h_rw_estimate, "free": table.free,
               "letter_entropy": table.letter_entropy,
               "ambiguity_warning": table.ambiguity_warning}
    return _emit(_wrap("hrw", cfg, rows, summary), cfg)


def cmd_dio(cfg: RunConfig) -> int:
    nmax = cfg.param("nmax", 8, int)
    cap = cfg.param("cap", 2_000_000, int)
    rep = diophantine_probe(cfg.system, nmax, cap)
    summary = {"fitted_c": rep.fitted_c, "collisions": rep.collisions_total,
               "branch_pairs": rep.branch_pairs_total,
               "min_separation": rep.min_separation()}
    return _emit(_wrap("dio", cfg, rep.rows, summary), cfg)


def cmd_sample(cfg: RunConfig) -> int:
    count = cfg.param("count", 100_000, int)
    bits = cfg.param("bits", DEFAULT_TARGET_BITS, float)
    transpose = parse_flag("transpose", cfg.param("transpose", "false"), None)
    space = cfg.param("space", C_INF)
    if space not in (C_INF, CP1):
        raise ConfigError(f"bad value {space!r} for 'space': expected "
                          f"{C_INF} or {CP1}")
    if not cfg.out_path:
        raise FurstlabError("sample needs --out for the point-cloud CSV")
    system = cfg.system.transposed() if transpose else cfg.system
    cloud = sample_boundary(system, bits, count, cfg.seed, cfg.workers)
    measure = cloud.measure if space == CP1 else sphere_to_plane(cloud.measure)
    measure.to_csv(cfg.out_path)
    summary = {"count": count, "space": space,
               "inf_mass": measure.inf_mass() if space == C_INF else 0.0,
               "mean_stop_length": float(cloud.steps.mean()),
               "path": cfg.out_path}
    rep = _wrap("sample", replace(cfg, system=system), [], summary)
    _sys.stdout.write(rep.to_json())
    return 0


def cmd_dim(cfg: RunConfig) -> int:
    count = cfg.param("count", 200_000, int)
    scheme = cfg.param("scheme", "entropy-slope")
    if scheme not in DIM_SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; known: {DIM_SCHEMES}")
    lo = cfg.param("window_lo", 2, int)
    hi = cfg.param("window_hi", 12, int)
    bits = cfg.param("bits", DEFAULT_TARGET_BITS, float)
    cloud = sample_boundary(cfg.system, bits, count, cfg.seed, cfg.workers)
    est = dim_estimate(cloud.measure, scheme, window=(lo, hi), seed=cfg.seed)
    summary = {"dimension": est.value, "stderr": est.stderr,
               "method": est.method, "count": count}
    return _emit(_wrap("dim", cfg, [], summary), cfg)


def cmd_delta(cfg: RunConfig) -> int:
    count = cfg.param("count", 200_000, int)
    qmax = cfg.param("qmax", 12, int)
    ladder = delta_estimate(cfg.system, qmax, count, cfg.seed, cfg.workers)
    est = ladder.estimate()
    summary = {"delta": est.value, "stderr": est.stderr, "method": est.method,
               "letter_entropy": ladder.letter_entropy}
    return _emit(_wrap("delta", cfg, ladder.rows, summary), cfg)


def _theta_from_params(cfg: RunConfig, tmax: float) -> ThetaSpec:
    """The theta measure of `cfg`; `tmax` is the arcs' default theta_tmax."""
    kind = cfg.param("theta", "four-ball")
    if kind == "identity":
        return ThetaSpec.identity_atom()
    if kind == "four-ball":
        return ThetaSpec.four_ball_atoms(cfg.param("theta_spread", 0.08, float))
    if kind == "translation-arc":
        return ThetaSpec.translation_arc(cfg.param("theta_tmax", tmax, float),
                                         cfg.param("theta_count", 4096, int))
    if kind == "lower-triangular-arc":
        return ThetaSpec.lower_triangular_arc(
            cfg.param("theta_tmax", tmax, float),
            cfg.param("theta_count", 4096, int))
    raise FurstlabError(f"unknown theta kind {kind!r}")


def cmd_exp(cfg: RunConfig, name: str) -> int:
    if not name:
        raise FurstlabError("exp needs an experiment name")
    if name not in EXPERIMENTS:
        raise FurstlabError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}")
    if name == "main-theorem":
        return cmd_report(cfg)
    count = cfg.param("count", 200_000, int)
    exp, seed, workers = EXPERIMENTS[name], cfg.seed, cfg.workers
    if name == "direction-cocycle":
        return _emit(exp(cfg.system, n=cfg.param("n", 10_000, int),
                         q=cfg.param("q", 30, int),
                         delta=cfg.param("delta", 0.1, float),
                         trials=cfg.param("trials", 8, int), seed=seed), cfg)
    if name == "linearization":
        return _emit(exp(k=cfg.param("k", 8, int),
                         delta=cfg.param("delta", 2.0 ** -10, float),
                         seed=seed), cfg)
    if name == "boundary-convergence":
        n_values = cfg.param("n_values", None,
                             lambda v: tuple(int(t) for t in v.split(",")))
        lengths = {} if n_values is None else {"n_values": n_values}
        return _emit(exp(cfg.system, **lengths,
                         eta=cfg.param("eta", 0.2, float),
                         trials=cfg.param("trials", 1024, int),
                         seed=seed, workers=workers), cfg)
    # the other four measure one boundary cloud, sampled once their
    # parameters have been read and checked
    if name == "uniform-entropy-dim":
        kw = {"m": cfg.param("m", 8, int),
              "eps": cfg.param("eps", 0.25, float)}
    elif name == "projection-entropy":
        kw = {"m": cfg.param("m", 8, int),
              "directions": cfg.param("directions", 180, int)}
    elif name == "entropy-increase":
        # the arcs reach theta_tmax, so by default they stop at r
        r = cfg.param("r", 0.25, float)
        kw = {"theta": _theta_from_params(cfg, r), "r": r,
              "n": cfg.param("n", 14, int)}
        check_theta_reach(kw["theta"], kw["r"])
    else:
        kw = {"theta": _theta_from_params(cfg, 0.5),
              "k": cfg.param("k", 8, int), "n": cfg.param("n", 6, int)}
        check_transfer_k(kw["k"])
    cloud = sample_boundary(cfg.system, DEFAULT_TARGET_BITS, count, seed,
                            workers)
    return _emit(exp(cloud, **kw, seed=seed), cfg)


def _budget_from_params(cfg: RunConfig) -> PipelineBudget:
    b = PipelineBudget()
    n = cfg.param("count", None, int)
    if n is not None:
        if n < b.boundary_samples:
            b = b.small(n)
        else:
            b.boundary_samples = n
    return b


def cmd_report(cfg: RunConfig) -> int:
    rep = exp_main_theorem(cfg.system, _budget_from_params(cfg),
                           seed=cfg.seed, workers=cfg.workers)
    return _emit(rep, cfg)


def cmd_presets() -> int:
    rows = [{"name": name, "generators": k, "exact": ex, "description": desc}
            for name, k, ex, desc in list_presets()]
    for r in rows:
        _sys.stdout.write(f"{r['name']:20s} k={r['generators']} "
                          f"exact={str(r['exact']).lower():5s} "
                          f"{r['description']}\n")
    return 0


# subcommand -> handler of the run config; `exp` also takes the experiment
# name, and `presets` reads no config
COMMANDS = {
    "check": cmd_check, "chi": cmd_chi, "hrw": cmd_hrw, "dio": cmd_dio,
    "sample": cmd_sample, "dim": cmd_dim, "delta": cmd_delta,
    "exp": cmd_exp, "report": cmd_report, "presets": cmd_presets,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="furstlab",
        description="Furstenberg-measure simulator and verification lab")
    ap.add_argument("command", choices=list(COMMANDS))
    ap.add_argument("name", nargs="?", default=None,
                    help="experiment name for `exp`")
    ap.add_argument("--config", default=None)
    ap.add_argument("--preset", default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    ap.add_argument("--format", choices=["json", "csv"], default=None)
    ap.add_argument("--workers", type=int, default=None)
    ap.add_argument("--param", action="append", default=[],
                    metavar="KEY=VALUE", help="override a [params] entry")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        if args.command == "presets":
            return cmd_presets()
        cfg = _effective_config(args)
        for kv in args.param:
            if "=" not in kv:
                raise FurstlabError(f"--param needs KEY=VALUE, got {kv!r}")
            k, v = kv.split("=", 1)
            cfg.params[k.strip()] = v.strip()
        if args.command == "exp":
            return cmd_exp(cfg, args.name)
        return COMMANDS[args.command](cfg)
    except FurstlabError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 1
    except OSError as exc:
        _sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
