"""Structured experiment reports with deterministic JSON serialization.

Numbers are serialized as decimal strings with 17 significant digits so that
reports are byte-identical across platforms and reruns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List

import numpy as np

VERDICT_CONSISTENT = "consistent"
VERDICT_INCONSISTENT = "inconsistent"
VERDICT_INCONCLUSIVE = "inconclusive"

_VERDICTS = (VERDICT_CONSISTENT, VERDICT_INCONSISTENT, VERDICT_INCONCLUSIVE)


def _encode(value):
    """Floats become 17-significant-digit decimal strings, recursively."""
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (int, str)) or value is None:
        return value
    if isinstance(value, complex):
        return [f"{value.real:.17g}", f"{value.imag:.17g}"]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return f"{float(value):.17g}"
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    return str(value)


@dataclass
class ExperimentReport:
    """Record of one seeded experiment run.

    The verdict is forced to `inconclusive` whenever any sub-estimator
    reported undersampling (see `undersampled`).
    """

    experiment: str
    system: str
    params: dict
    seed: int
    rows: List[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    verdict: str = VERDICT_INCONCLUSIVE
    undersampled: bool = False

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.undersampled:
            self.verdict = VERDICT_INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "experiment": self.experiment,
            "system": self.system,
            "params": _encode(self.params),
            "seed": self.seed,
            "rows": _encode(self.rows),
            "summary": _encode(self.summary),
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False) + "\n"

    def exit_code(self) -> int:
        if self.verdict == VERDICT_CONSISTENT:
            return 0
        if self.verdict == VERDICT_INCONSISTENT:
            return 2
        return 3


def rows_to_csv(rows: List[dict]) -> str:
    """CSV rendering of homogeneous report rows (17 significant digits)."""
    if not rows:
        return "\n"
    cols = list(rows[0].keys())
    out = [",".join(cols)]
    for r in rows:
        vals = []
        for c in cols:
            v = r.get(c)
            if isinstance(v, bool):
                vals.append(str(v).lower())
            elif isinstance(v, float):
                vals.append(f"{v:.17g}")
            elif v is None:
                vals.append("")
            else:
                vals.append(str(v))
        out.append(",".join(vals))
    return "\n".join(out) + "\n"
