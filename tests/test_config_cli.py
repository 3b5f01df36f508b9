"""Config parsing, round trips, CLI dispatch, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from furstlab.cli import main
from furstlab.config import parse_config
from furstlab.errors import ConfigError
from furstlab.presets import get_preset

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


def test_parse_renormalizes_near_unit_determinant():
    text = "[system]\ng = 1.000000001,0,0,0,0,0,1,0\n"
    cfg = parse_config(text)
    assert abs(cfg.system.generators[0].det() - 1) <= 1e-14


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


def test_cli_boundary_convergence_default_lengths(tmp_path):
    # the default lengths start at n = 30; at n = 10 the twist fraction sits
    # on 1 - eta = 0.8 and reads 0.793 at seed 7
    out = tmp_path / "r.json"
    code = main(["exp", "boundary-convergence", "--preset", "twist",
                 "--seed", "7", "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["n"] for r in rows] == [30, 60, 100]
