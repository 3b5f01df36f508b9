"""Config parsing, round trips, CLI dispatch, exit codes, determinism."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from furstlab.cli import main
from furstlab.config import parse_config
from furstlab.dyadic import uniform_square
from furstlab.engine import (dim_estimate, entropy_slope_dimension,
                             lyapunov_estimate, sample_boundary)
from furstlab.checks import diophantine_probe
from furstlab.errors import (ConfigError, FloatOverflowError, StallError,
                             UndersampledError)
from furstlab.experiments import (ThetaSpec, exp_action_entropy_transfer,
                                  exp_direction_cocycle, exp_entropy_increase,
                                  exp_linearization_check)
from furstlab.presets import PRESETS, get_preset
from furstlab.words import sample_word

MINIMAL = """
[system]
preset = sanov

[params]
seed = 4
nmax = 6
"""

INLINE = """
[system]
g = 1,0,2,0,0,0,1,0
g = 1,0,0,0,2,0,1,0
p = 1/2,1/2
exact = true

[params]
seed = 9
"""

IDENTITY_ONE = """
[system]
g = 1,0,0,0,0,0,1,0
p = 1
"""

BAD_DET = """
[system]
g = 2,0,0,0,0,0,1,0
"""

NAN_ENTRY = "[system]\ng = nan,0,0,0,0,0,1,0\n"
INF_ENTRY = "[system]\ng = 1,0,inf,0,0,0,1,0\n"


def test_parse_preset_reference():
    cfg = parse_config(MINIMAL)
    assert cfg.preset == "sanov"
    assert cfg.seed == 4
    assert cfg.params["nmax"] == "6"
    assert cfg.system.fingerprint() == get_preset("sanov").fingerprint()


def test_parse_inline_exact():
    cfg = parse_config(INLINE)
    assert cfg.system.exact
    assert cfg.system.size == 2
    assert cfg.system.generators[0].entries() == (1, 2, 0, 1)
    assert cfg.seed == 9


def test_parse_inline_identity_degenerate():
    cfg = parse_config(IDENTITY_ONE)
    assert cfg.system.size == 1
    assert cfg.system.generators[0].entries() == (1, 0, 0, 1)


def test_parse_rejects_bad_determinant_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config(BAD_DET)
    assert "determinant" in str(err.value)
    assert "line 3" in str(err.value)


def test_parse_rejects_bad_exact_determinant_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config(BAD_DET + "exact = true\n")
    assert "exact determinant is not 1" in str(err.value)
    assert "line 3" in str(err.value)


def test_parse_renormalizes_near_unit_determinant():
    text = "[system]\ng = 1.000000001,0,0,0,0,0,1,0\n"
    cfg = parse_config(text)
    assert abs(cfg.system.generators[0].det() - 1) <= 1e-14


@pytest.mark.parametrize("value, exact", [
    ("true", True), ("TRUE", True), ("Yes", True), ("1", True),
    ("false", False), ("No", False), ("0", False), ("FALSE", False)])
def test_parse_exact_flag(value, exact):
    cfg = parse_config(INLINE.replace("exact = true", f"exact = {value}"))
    assert (cfg.system.exact is not None) == exact


@pytest.mark.parametrize("value", ["ture", "on", "2", ""],
                         ids=["typo", "on", "two", "empty"])
def test_parse_rejects_bad_exact_flag(value):
    with pytest.raises(ConfigError) as err:
        parse_config(INLINE.replace("exact = true", f"exact = {value}"))
    assert "line 6" in str(err.value) and "'exact'" in str(err.value)


def test_parse_rejects_bad_probabilities():
    with pytest.raises(ConfigError):
        parse_config("[system]\ng = 1,0,0,0,0,0,1,0\np = 0.4,0.4\n")


def test_roundtrip_preset_and_inline():
    for text in (MINIMAL, INLINE):
        cfg = parse_config(text)
        again = parse_config(cfg.to_text())
        assert again.system == cfg.system
        assert again.seed == cfg.seed
        assert again.params == cfg.params
        assert again.out_format == cfg.out_format


# -- parse / to_text properties (hypothesis) ----------------------------------

GAUSS_INT = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def exact_matrix(draw):
    """Gaussian-integer matrix of determinant one: a product of shears."""
    a, b, c, d = (1, 0), (0, 0), (0, 0), (1, 0)
    mul = lambda x, y: (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])
    add = lambda x, y: (x[0] + y[0], x[1] + y[1])
    for upper, k in draw(st.lists(st.tuples(st.booleans(), GAUSS_INT),
                                  max_size=4)):
        if upper:       # right factor [[1, k], [0, 1]]
            b, d = add(mul(a, k), b), add(mul(c, k), d)
        else:           # right factor [[1, 0], [k, 1]]
            a, c = add(a, mul(b, k)), add(c, mul(d, k))
    return [x for z in (a, b, c, d) for x in z]


@st.composite
def float_matrix(draw):
    """Float matrix with d = (1 + b c) / a, so det = 1 to rounding."""
    part = st.floats(-4.0, 4.0, allow_nan=False)
    a = complex(draw(st.floats(0.25, 4.0)), draw(part))
    b, c = (complex(draw(part), draw(part)) for _ in range(2))
    d = (1 + b * c) / a
    return [x for z in (a, b, c, d) for x in (z.real, z.imag)]


@st.composite
def config_text(draw):
    exact = draw(st.booleans())
    k = draw(st.integers(1, 3))
    lines = ["[system]"]
    if draw(st.booleans()):
        lines.append(f"preset = {draw(st.sampled_from(sorted(PRESETS)))}")
    else:
        for _ in range(k):
            entries = draw(exact_matrix() if exact else float_matrix())
            lines.append("g = " + ",".join(f"{x!r}" for x in entries))
        weights = draw(st.lists(st.integers(1, 9), min_size=k, max_size=k))
        lines.append("p = " + ",".join(repr(w / sum(weights))
                                       for w in weights))
        lines.append(f"exact = {'true' if exact else 'false'}")
    lines.append("[params]")
    lines.append(f"seed = {draw(st.integers(0, 2 ** 64 - 1))}")
    lines.append(f"workers = {draw(st.integers(1, 8))}")
    keys = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
    values = st.text("abcdefghijklmnopqrstuvwxyz0123456789.,/-", min_size=1,
                     max_size=12)
    for key, val in draw(st.dictionaries(keys, values, max_size=4)).items():
        if key not in ("seed", "workers"):
            lines.append(f"{key} = {val}")
    lines.append("[output]")
    if draw(st.booleans()):
        lines.append(f"path = {draw(values)}.json")
    lines.append(f"format = {draw(st.sampled_from(['json', 'csv']))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(config_text())
def test_roundtrip_property(text):
    cfg = parse_config(text)
    again = parse_config(cfg.to_text())
    assert again.preset == cfg.preset
    assert (again.seed, again.workers) == (cfg.seed, cfg.workers)
    assert again.params == cfg.params
    assert (again.out_path, again.out_format) == (cfg.out_path, cfg.out_format)
    sys0, sys1 = cfg.system, again.system
    assert (sys1.exact, sys1.probs) == (sys0.exact, sys0.probs)
    assert sys1.fingerprint() == sys0.fingerprint()


def test_rescaled_matrix_is_a_roundtrip_fixed_point():
    # det = 1 - 1.8e-15, within the rounding of a d - b c: re-reading the
    # written config must give the same system every time
    text = ("[system]\ng = 3.5,0.0,-4.0,2.3125,2.25,3.0,"
            "-4.267857142857143,-1.9419642857142858\n")
    cfg = parse_config(text)
    prints = [cfg.system.fingerprint()]
    for _ in range(3):
        cfg = parse_config(cfg.to_text())
        prints.append(cfg.system.fingerprint())
    assert len(set(prints)) == 1


def test_negative_zero_entry_is_a_roundtrip_fixed_point():
    # to_text writes -0.0 as "-0", which must read back as -0.0
    cfg = parse_config("[system]\ng = 1.0,-0.0,0.0,0.0,0.0,0.0,1.0,0.0\n")
    again = parse_config(cfg.to_text())
    assert again.system.fingerprint() == cfg.system.fingerprint()


BAD_LITERALS = ["nan", "inf", "-inf", "1e400", "-2e308", "1e999999"]


@settings(max_examples=60, deadline=None)
@given(float_matrix(), st.integers(0, 7), st.sampled_from(BAD_LITERALS))
def test_nonfinite_matrix_entry_rejected(entries, pos, bad):
    toks = [repr(x) for x in entries]
    toks[pos] = bad
    with pytest.raises(ConfigError) as err:
        parse_config("[system]\ng = " + ",".join(toks) + "\n")
    assert "line 2" in str(err.value)


@settings(max_examples=30, deadline=None)
@given(st.floats(1e155, 1e300), st.sampled_from([(0, 6), (0, 2, 4, 6)]))
def test_overflowing_determinant_rejected(big, where):
    # finite entries whose products overflow: det is inf, or inf - inf = nan
    toks = ["1.0", "0", "0", "0", "0", "0", "1.0", "0"]
    for pos in where:
        toks[pos] = repr(big)
    with pytest.raises(ConfigError) as err:
        parse_config("[system]\ng = " + ",".join(toks) + "\n")
    assert "line 2" in str(err.value)


def test_underflow_overflow_pair_rejected():
    # 1e400 parses as inf and 1e-400 as 0, so det = inf * 0 = nan; an all-nan
    # generator used to pass the |det - 1| check
    with pytest.raises(ConfigError) as err:
        parse_config("[system]\ng = 1e400,0,0,0,0,0,1e-400,0\n")
    assert "line 2" in str(err.value)


def test_overflowing_exact_entry_rejected():
    huge = str(10 ** 400)
    text = (f"[system]\ng = {huge},0,0,0,0,0,1/{huge},0\n"
            "exact = true\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 2" in str(err.value)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.sampled_from(BAD_LITERALS + ["0", "0.0", "-0.5"]))
def test_bad_probability_rejected(pos, bad):
    probs = ["0.5", "0.5"]
    probs[pos] = bad
    text = ("[system]\ng = 1,0,0,0,0,0,1,0\ng = 2,0,0,0,0,0,0.5,0\n"
            f"p = {','.join(probs)}\n")
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert "line 4" in str(err.value)


def test_cli_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_cli_check_sanov(tmp_path):
    cfg = tmp_path / "sanov.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "report.json"
    code = main(["check", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["summary"]["strongly_irreducible"] is True
    assert len(doc["summary"]["fixed_circles"]) == 1


def test_cli_hrw_sanov_table(tmp_path):
    cfg = tmp_path / "sanov.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "hrw.json"
    code = main(["hrw", "--config", str(cfg), "--out", str(out),
                 "--param", "nmax=10"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["rows"]) == 10
    assert all(abs(float(r["H_n_over_n"]) - 1.0) <= 1e-12
               for r in doc["rows"])


def test_cli_exit_code_inconsistent(tmp_path):
    cfg = tmp_path / "sanov.cfg"
    cfg.write_text(MINIMAL)
    code = main(["exp", "direction-cocycle", "--config", str(cfg),
                 "--out", str(tmp_path / "r.json"),
                 "--param", "n=500", "--param", "trials=1", "--param", "q=20"])
    assert code == 2      # sanov cocycle is concentrated: inconsistent


def test_cli_env_seed_override(tmp_path, monkeypatch):
    cfg = tmp_path / "sanov.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "r.json"
    monkeypatch.setenv("FURST_SEED", "777")
    main(["hrw", "--config", str(cfg), "--out", str(out)])
    assert json.loads(out.read_text())["seed"] == 777


def test_cli_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "twist.cfg"
    cfg.write_text("[system]\npreset = twist\n[params]\nseed = 5\n")
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(["chi", "--config", str(cfg), "--out", str(out),
                     "--param", "n=300", "--param", "trials=64"])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_sample_csv(tmp_path):
    out = tmp_path / "cloud.csv"
    code = main(["sample", "--preset", "sanov", "--seed", "1",
                 "--out", str(out), "--param", "count=500",
                 "--param", "bits=20"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,weight"
    assert len(lines) == 501


def test_cli_sample_transpose_tags_sampled_system(tmp_path, capsys):
    code = main(["sample", "--preset", "twist", "--seed", "1",
                 "--out", str(tmp_path / "cloud.csv"), "--param", "count=64",
                 "--param", "transpose=true"])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["system"] == get_preset("twist").transposed().tag()
    assert rep["system"].startswith("twist-transpose:")


@pytest.mark.parametrize("command", ["hrw", "dio"])
def test_cli_float_overflow_exits_1(tmp_path, capsys, command):
    # diag(1e200, 1e-200) squared leaves the float range
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("[system]\ng = 1e200,0,0,0,0,0,1e-200,0\np = 1\n")
    assert main([command, "--config", str(cfg), "--param", "nmax=3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "length 2" in err


def test_cli_csv_format_for_rows(tmp_path):
    cfg = tmp_path / "sanov.cfg"
    cfg.write_text(MINIMAL)
    out = tmp_path / "dio.csv"
    code = main(["dio", "--config", str(cfg), "--out", str(out),
                 "--format", "csv", "--param", "nmax=4"])
    assert code == 0
    header = out.read_text().splitlines()[0]
    assert header.startswith("n,words,distinct,collisions")


def test_cli_entrypoint_process():
    proc = subprocess.run([sys.executable, "-m", "furstlab.cli", "presets"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "twist" in proc.stdout


def test_cli_exit_code_inconclusive(tmp_path):
    cfg = tmp_path / "su2.cfg"
    cfg.write_text("[system]\npreset = su2-control\n")
    code = main(["exp", "boundary-convergence", "--config", str(cfg),
                 "--out", str(tmp_path / "r.json"),
                 "--param", "trials=16", "--param", "n_values=5"])
    assert code == 3


def test_cli_rejects_bad_seed(tmp_path):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(MINIMAL)
    assert main(["hrw", "--config", str(cfg), "--seed", "-3"]) == 1


def test_cli_rejects_bad_env_seed(tmp_path, monkeypatch):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(MINIMAL)
    monkeypatch.setenv("FURST_SEED", "not-a-number")
    assert main(["hrw", "--config", str(cfg)]) == 1


@pytest.mark.parametrize("args, config, message", [
    (["chi", "--param", "n=abc"], None, "'n'"),
    (["chi"], "[system]\npreset = sanov\n[params]\nworkers = abc\n",
     "workers"),
    (["exp", "boundary-convergence", "--param", "n_values=3,x"], None,
     "'n_values'"),
    (["chi", "--param", "n=0"], None, "n >= 1"),
    (["chi", "--param", "n=20", "--param", "trials=0"], None, "got 0"),
    (["exp", "boundary-convergence", "--param", "trials=0"], None, "got 0"),
    (["sample", "--param", "count=0", "--out", "@cloud.csv"], None, "got 0"),
    (["sample", "--param", "count=0"], None, "--out"),
    (["dim", "--param", "count=0"], None, "got 0"),
    (["delta", "--param", "count=0"], None, "got 0"),
    (["exp", "direction-cocycle", "--param", "trials=0"], None, "trials=0"),
    (["exp", "direction-cocycle", "--param", "n=0", "--param", "trials=1"],
     None, "n=0"),
    (["hrw", "--param", "nmax=0"], None, "got 0"),
    (["dio", "--param", "nmax=0"], None, "got 0"),
    (["sample", "--param", "transpose=ture", "--param", "count=64",
      "--out", "@cloud.csv"], None, "'transpose'"),
    (["hrw", "--param", "nmax=2"],
     "[system]\ng = 1,0,2,0,0,0,1,0\ng = 1,0,0,0,2,0,1,0\nexact = ture\n",
     "'exact'"),
], ids=["malformed-int", "malformed-workers", "malformed-list", "chi-n-0",
        "chi-trials-0", "convergence-trials-0", "sample-count-0",
        "sample-needs-out", "dim-count-0", "delta-count-0",
        "cocycle-trials-0", "cocycle-n-0", "hrw-nmax-0", "dio-nmax-0",
        "sample-transpose-flag", "config-exact-flag"])
def test_cli_bad_input_exits_1(tmp_path, capsys, args, config, message):
    args = [a.replace("@", f"{tmp_path}/") for a in args]
    if config is None:
        args += ["--preset", "sanov"]
    else:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", str(tmp_path / "run.cfg")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _no_sampling(*args, **kwargs):
    raise AssertionError("sampled before the parameters were checked")


@pytest.mark.parametrize("args, message", [
    (["sample", "--out", "@cloud.csv", "--param", "space=sphere"], "'space'"),
    (["sample", "--out", "@cloud.csv", "--param", "space=g_chart"], "'space'"),
    (["dim", "--param", "scheme=box"], "'box'"),
], ids=["sample-space-sphere", "sample-space-g-chart", "dim-scheme"])
def test_cli_rejects_bad_choice_before_sampling(tmp_path, capsys, monkeypatch,
                                                args, message):
    monkeypatch.setattr("furstlab.cli.sample_boundary", _no_sampling)
    args = [a.replace("@", f"{tmp_path}/") for a in args]
    assert main(args + ["--preset", "sanov"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.iterdir())


def test_cli_boundary_convergence_default_lengths(tmp_path):
    # the default lengths start at n = 30; at n = 10 the twist fraction sits
    # on 1 - eta = 0.8 and reads 0.793 at seed 7
    out = tmp_path / "r.json"
    code = main(["exp", "boundary-convergence", "--preset", "twist",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["n"] for r in rows] == [30, 60, 100]


# -- bad input, one row per class: the API raises the typed error, the CLI
# exits 1 ---------------------------------------------------------------------

NORM_ONE = "[system]\ng = 1,0,0,0,0,0,1,0\np = 1\n"
# the ratio of the last two generators is finite, with |b| about 1e6 and an
# entry 1e150, but the squares in its log norm overflow
OVERFLOWING_RATIO = (
    "[system]\ng = 1,0,0,0,0,0,1,0\n"
    "g = -0.9999999999955,-2.9999999999955002e-06,1e150,0,0,0,"
    "-0.9999999999955,2.9999999999955002e-06\n"
    "g = 1,0,1e-3,0,0,0,1,0\np = 0.3,0.3,0.4\n")
HUGE_EXACT = (f"[system]\ng = {10 ** 400},0,0,0,0,0,1/{10 ** 400},0\n"
              "exact = true\n")
# generators of norm about 2^64: 8 steps between renorms would square
# entries past the float range
HUGE_NORM = (f"[system]\ng = {2 ** 64},0,0,0,0,0,1/{2 ** 64},0\n"
             f"g = {2 ** 64},0,1,0,0,0,1/{2 ** 64},0\n")


BAD_INPUTS = {
    "non-proximal": (
        lambda: sample_boundary(get_preset("su2-control"), 40.0, 512, 0),
        StallError, ["dim", "--preset", "su2-control", "--param", "count=512"],
        None),
    "det-not-one": (
        lambda: parse_config(BAD_DET), ConfigError, ["check"], BAD_DET),
    "nan-entry": (
        lambda: parse_config(NAN_ENTRY), ConfigError, ["check"], NAN_ENTRY),
    "inf-entry": (
        lambda: parse_config(INF_ENTRY), ConfigError, ["check"], INF_ENTRY),
    # an exact entry past the float range is refused as it is parsed
    "exact-overflow": (
        lambda: parse_config(HUGE_EXACT), ConfigError, ["check"], HUGE_EXACT),
    # 300 samples occupy more than 30 cells at levels 4 and 5
    "empty-entropy-window": (
        lambda: entropy_slope_dimension(
            sample_boundary(get_preset("twist"), 40.0, 300, 7).measure, (4, 5)),
        UndersampledError,
        ["dim", "--param", "count=300", "--param", "window_lo=4",
         "--param", "window_hi=5", "--preset", "twist"], None),
    # a norm-one system never passes the stopping rule's goal
    "norm-one-first-passage": (
        lambda: sample_boundary(parse_config(NORM_ONE).system, 40.0, 64, 0),
        StallError, ["sample", "--out", "@cloud.csv",
                     "--param", "count=64"], NORM_ONE),
    "chi-overflowing-renorm-cadence": (
        lambda: lyapunov_estimate(parse_config(HUGE_NORM).system, 100, 10),
        FloatOverflowError,
        ["chi", "--param", "n=100", "--param", "trials=10"], HUGE_NORM),
    # the orbit entropies are normalised by k
    "action-entropy-transfer-k=0": (
        lambda: exp_action_entropy_transfer(
            uniform_square(100, seed=1), ThetaSpec.four_ball_atoms(0.08), k=0),
        ConfigError, ["exp", "action-entropy-transfer", "--param", "k=0",
                      "--param", "count=512"], None),
    # a first passage on a norm-one system stops at the block cap
    "stalled-first-passage": (
        lambda: sample_word(get_preset("su2-control"),
                            np.random.default_rng(0), first_passage=(0, 1, 60)),
        StallError, ["exp", "direction-cocycle", "--preset", "su2-control",
                     "--param", "trials=1", "--param", "n=10"], None),
    "dio-overflowing-ratio": (
        lambda: diophantine_probe(parse_config(OVERFLOWING_RATIO).system, 1),
        FloatOverflowError, ["dio", "--param", "nmax=1"], OVERFLOWING_RATIO),
    # a non-positive target stops every walk after one letter, and the
    # dimension of that cloud is about 0
    "non-positive-target-bits": (
        lambda: sample_boundary(get_preset("twist"), -5.0, 64, 0),
        ConfigError, ["dim", "--preset", "twist", "--param", "bits=-5"],
        None),
    "unknown-dim-scheme": (
        lambda: dim_estimate(uniform_square(100, seed=1), "box"),
        ConfigError, ["dim", "--preset", "sanov", "--param", "scheme=box"],
        None),
}



def _bad_delta(name, value):
    # refused before any work: the cocycle's asin and verdict need delta in
    # (0, 1) and its delta/2-net at most 2^24 points; linearization needs a
    # scale in (0, 1], or its rejection loop never accepts an atom
    if name == "direction-cocycle":
        def call():
            return exp_direction_cocycle(get_preset("twist"), n=10, trials=1,
                                         delta=float(value))
    else:
        def call():
            return exp_linearization_check(delta=float(value))
    return call, ConfigError, ["exp", name, "--param", f"delta={value}"], None


BAD_DELTAS = {"direction-cocycle": ("0", "-1", "nan", "inf", "1", "1e-300"),
              "linearization": ("0", "-1", "nan", "inf")}
BAD_INPUTS.update({f"{name}-delta={value}": _bad_delta(name, value)
                   for name, values in BAD_DELTAS.items()
                   for value in values})


def _bad_radius(value):
    # the default theta atoms reach 0.118 from the identity, beyond r
    def call():
        cloud = sample_boundary(get_preset("twist"), 40.0, 64, 0)
        return exp_entropy_increase(cloud, ThetaSpec.four_ball_atoms(0.08),
                                    r=float(value))
    return call, ConfigError, ["exp", "entropy-increase", "--param",
                               f"r={value}", "--param", "count=512"], None


BAD_INPUTS.update({f"entropy-increase-r={value}": _bad_radius(value)
                   for value in ("0", "-1", "1e-300")})

# what the CLI's error line says, where a case pins it
BAD_INPUT_MESSAGES = {
    # the sampler's stall test at step 255, not its 4096-letter cap
    "norm-one-first-passage": "system looks non-proximal",
    # the first passage's stall test at block 256, not its block cap
    "stalled-first-passage": "system looks non-proximal",
    "dio-overflowing-ratio": "length 1",
    "chi-overflowing-renorm-cadence": "renormalised every 8 steps",
    "action-entropy-transfer-k=0": "k >= 1",
    **{case: "> r = " for case in BAD_INPUTS if "-r=" in case},
    **{case: "delta" for case in BAD_INPUTS if "-delta=" in case},
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_api_raises_typed_error(case):
    call, error, _, _ = BAD_INPUTS[case]
    with pytest.raises(error):
        call()


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_cli_exits_1(tmp_path, capsys, case):
    _, _, args, config = BAD_INPUTS[case]
    args = [a.replace("@", f"{tmp_path}/") for a in args]
    if config is not None:
        (tmp_path / "run.cfg").write_text(config)
        args += ["--config", str(tmp_path / "run.cfg")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert BAD_INPUT_MESSAGES.get(case, "") in err


@pytest.mark.parametrize("args, message", [
    (["exp", "entropy-increase", "--param", "r=0"], "> r = 0.0"),
    (["exp", "entropy-increase", "--param", "theta_spread=0.5"],
     "> r = 0.25"),
    (["exp", "action-entropy-transfer", "--param", "k=0"], "k >= 1"),
], ids=["entropy-increase-r=0", "entropy-increase-theta_spread=0.5",
        "action-entropy-transfer-k=0"])
def test_cloud_experiments_check_params_before_sampling(monkeypatch, capsys,
                                                         args, message):
    # the default count would sample 200 000 points before the refusal
    def refuse(*_args, **_kwargs):
        raise AssertionError("sampled the cloud before checking parameters")
    monkeypatch.setattr("furstlab.cli.sample_boundary", refuse)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("kind", ["translation-arc", "lower-triangular-arc"])
def test_entropy_increase_arcs_run_at_their_defaults(capsys, kind):
    # the arcs' theta_tmax defaults to r; an explicit one beyond r is
    # refused. Below about 30 000 twist points the entropy-slope window of
    # every theta kind is empty, so the run needs that many
    args = ["exp", "entropy-increase", "--preset", "twist",
            "--param", f"theta={kind}", "--param", "count=30000"]
    assert main(args) == 0
    capsys.readouterr()
    assert main(args + ["--param", "theta_tmax=0.3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "> r = 0.25" in err


def test_report_su2_control_is_inconclusive(capsys):
    # the report skips sampling when norm growth fails: exit 3, not an error
    assert main(["report", "--preset", "su2-control"]) == 3
