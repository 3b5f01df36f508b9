"""Line-oriented run configuration.

Three sections: [system], [params], [output]. The system is either a preset
reference or inline matrices, one `g = ...` line per generator with eight
comma-separated entries (re,im pairs row-major); entries may be decimal or
exact rational literals `p/q`. A probability line `p = ...` and an optional
`exact = true/false` complete the system. Flags read true/false, 1/0 or
yes/no in any case; anything else is an error.

Entries and determinants must be finite. Float-mode inline matrices are
accepted when |det - 1| <= 1e-8 and then rescaled by the principal square
root of the determinant, so downstream code sees determinant one to machine
precision. Exact mode requires rational
entries with determinant exactly one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from .errors import ConfigError
from .presets import get_preset
from .sl2 import ExactMatrix, GroupElement, exact_det_is_one, exact_matrix
from .words import System

DET_TOL = 1e-8
FLAGS = {"true": True, "1": True, "yes": True,
         "false": False, "0": False, "no": False}


def parse_flag(key: str, value: str, line: Optional[int]) -> bool:
    """A boolean setting: true/false, 1/0 or yes/no in any case; ConfigError
    naming the key (and the line, when there is one) for anything else."""
    try:
        return FLAGS[value.strip().lower()]
    except KeyError:
        raise ConfigError(f"bad value {value!r} for {key!r}: expected "
                          "true/false, 1/0 or yes/no", line)


@dataclass
class RunConfig:
    system: System
    preset: Optional[str] = None          # set when the system came by name
    seed: int = 0
    workers: int = 1
    params: Dict[str, str] = field(default_factory=dict)
    out_path: Optional[str] = None
    out_format: str = "json"

    def param(self, key: str, default=None, cast=str):
        """[params] entry `key` read by `cast` (ConfigError if it fails)."""
        if key not in self.params:
            return default
        try:
            return cast(self.params[key])
        except ValueError:
            raise ConfigError(f"bad value {self.params[key]!r} for {key!r}")

    def to_text(self) -> str:
        lines = ["[system]"]
        if self.preset is not None:
            lines.append(f"preset = {self.preset}")
        else:
            if self.system.exact:
                rows = [[_frac_str(Fraction(v, x[0])) for v in x[1:]]
                        for x in self.system.exact]
            else:
                rows = [[f"{t:.17g}" for z in g.entries()
                         for t in (z.real, z.imag)]
                        for g in self.system.generators]
            lines.extend("g = " + ",".join(r) for r in rows)
            lines.append("p = " + ",".join(f"{p:.17g}" for p in self.system.probs))
            lines.append(f"exact = {'true' if self.system.exact else 'false'}")
        lines.append("")
        lines.append("[params]")
        lines.append(f"seed = {self.seed}")
        lines.append(f"workers = {self.workers}")
        for k in sorted(self.params):
            lines.append(f"{k} = {self.params[k]}")
        lines.append("")
        lines.append("[output]")
        if self.out_path is not None:
            lines.append(f"path = {self.out_path}")
        lines.append(f"format = {self.out_format}")
        return "\n".join(lines) + "\n"


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse_scalar(tok: str, line_no: int) -> Tuple[float, Optional[Fraction]]:
    tok = tok.strip()
    try:
        if "/" in tok:
            fr = Fraction(tok)
            return float(fr), fr
        if "." not in tok and "e" not in tok.lower():
            # float(tok), not float(fr): "-0" (how to_text writes -0.0)
            # keeps its sign
            fr = Fraction(int(tok))
            return float(tok), fr
        return float(tok), None
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"bad numeric literal {tok!r}: {exc}", line_no)


def _build_matrix(tokens: List[str], line_no: int,
                  want_exact: bool) -> Union[ExactMatrix, GroupElement]:
    """The exact entries of a `g = ...` line in exact mode, else its float
    matrix."""
    if len(tokens) != 8:
        raise ConfigError(f"matrix line needs 8 entries, got {len(tokens)}",
                          line_no)
    vals = [_parse_scalar(t, line_no) for t in tokens]
    floats = [v[0] for v in vals]
    fracs = [v[1] for v in vals]
    a, b, c, d = (complex(floats[2 * i], floats[2 * i + 1]) for i in range(4))
    det = a * d - b * c
    if not all(map(cmath.isfinite, (a, b, c, d, det))):
        raise ConfigError(
            f"matrix entries and determinant must be finite; entries "
            f"({a}, {b}; {c}, {d}), determinant {det}", line_no)
    if want_exact:
        if any(f is None for f in fracs):
            raise ConfigError("exact mode needs rational entries (p/q or "
                              "integer literals)", line_no)
        x = exact_matrix(fracs)
        if not exact_det_is_one(x):
            raise ConfigError(f"exact determinant is not 1 (in floats "
                              f"{det:.12g})", line_no)
        return x
    if abs(det - 1.0) > DET_TOL:
        raise ConfigError(
            f"determinant {det:.12g} violates |det-1| <= {DET_TOL:g}; "
            f"entries ({a}, {b}; {c}, {d})", line_no)
    if abs(det - 1.0) <= 8.0 * math.ulp(1.0) * (abs(a * d) + abs(b * c)):
        # det is 1 up to the rounding of a d - b c: rescaling would only
        # move the entries, and re-reading a written config would drift
        return GroupElement(a, b, c, d)
    s = det ** 0.5
    return GroupElement(a / s, b / s, c / s, d / s)


def parse_config(text: str) -> RunConfig:
    section = None
    preset_name: Optional[str] = None
    g_lines: List[Tuple[int, List[str]]] = []
    p_line: Optional[Tuple[int, List[str]]] = None
    exact = False
    exact_set_at: Optional[int] = None
    params: Dict[str, str] = {}
    seed = 0
    workers = 1
    out_path: Optional[str] = None
    out_format = "json"

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("system", "params", "output"):
                raise ConfigError(f"unknown section [{section}]", line_no)
            continue
        if "=" not in line:
            raise ConfigError("expected key = value", line_no)
        key, val = (s.strip() for s in line.split("=", 1))
        key = key.lower()
        if section == "system":
            if key == "preset":
                preset_name = val
            elif key == "g":
                g_lines.append((line_no, val.split(",")))
            elif key == "p":
                p_line = (line_no, val.split(","))
            elif key == "exact":
                exact = parse_flag(key, val, line_no)
                exact_set_at = line_no
            else:
                raise ConfigError(f"unknown system key {key!r}", line_no)
        elif section == "params":
            if key == "seed":
                try:
                    seed = int(val)
                except ValueError:
                    raise ConfigError(f"bad seed {val!r}", line_no)
                if not (0 <= seed < 2 ** 64):
                    raise ConfigError("seed must fit in 64 unsigned bits",
                                      line_no)
            elif key == "workers":
                try:
                    workers = int(val)
                except ValueError:
                    raise ConfigError(f"bad workers {val!r}", line_no)
            else:
                params[key] = val
        elif section == "output":
            if key == "path":
                out_path = val
            elif key == "format":
                if val not in ("json", "csv"):
                    raise ConfigError(f"unknown format {val!r}", line_no)
                out_format = val
            else:
                raise ConfigError(f"unknown output key {key!r}", line_no)
        else:
            raise ConfigError("key outside any section", line_no)

    if preset_name is not None:
        if g_lines:
            raise ConfigError("preset and inline matrices are exclusive",
                              g_lines[0][0])
        try:
            system = get_preset(preset_name)
        except KeyError as exc:
            raise ConfigError(str(exc), 1)
        return RunConfig(system, preset_name, seed, workers, params,
                         out_path, out_format)

    if not g_lines:
        raise ConfigError("no system given: need `preset = ...` or g lines", 1)
    mats = tuple(_build_matrix(toks, ln, exact) for ln, toks in g_lines)
    if p_line is None:
        probs = tuple(1.0 / len(mats) for _ in mats)
    else:
        ln, toks = p_line
        if len(toks) != len(mats):
            raise ConfigError(
                f"{len(toks)} probabilities for {len(mats)} matrices", ln)
        probs = tuple(_parse_scalar(t, ln)[0] for t in toks)
        if not all(0 < p < math.inf for p in probs):
            raise ConfigError("probabilities must be positive and finite", ln)
        if abs(math.fsum(probs) - 1.0) > 1e-12:
            raise ConfigError(
                f"probabilities sum to {math.fsum(probs)!r}, not 1", ln)
    try:
        system = (System.from_exact(mats, probs, "inline") if exact
                  else System(mats, probs, name="inline"))
    except ValueError as exc:
        raise ConfigError(str(exc), exact_set_at or g_lines[0][0])
    return RunConfig(system, None, seed, workers, params, out_path, out_format)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
