"""Built-in generating systems used by the test suite and the CLI."""

from __future__ import annotations

import cmath

from .sl2 import GroupElement, exact_matrix, su2_from_pair
from .words import System


def sanov() -> System:
    """Integer parabolic pair; free semigroup, fixes the real line."""
    g0 = exact_matrix([1, 0, 2, 0, 0, 0, 1, 0])
    g1 = exact_matrix([1, 0, 0, 0, 2, 0, 1, 0])
    return System.from_exact((g0, g1), (0.5, 0.5), "sanov")


def twist() -> System:
    """Sanov pair plus an order-seven elliptic rotation; no fixed circle."""
    s = sanov()
    w = cmath.exp(1j * cmath.pi / 7)
    rot = GroupElement(w, 0j, 0j, 1.0 / w)
    third = 1.0 / 3.0
    return System(s.generators + (rot,), (third, third, 1.0 - 2.0 * third),
                  name="twist")


def discrete_gaussian() -> System:
    """Parabolic pair over the Gaussian integers."""
    g0 = exact_matrix([1, 0, 1, 1, 0, 0, 1, 0])
    g1 = exact_matrix([1, 0, 0, 0, 1, -1, 1, 0])
    return System.from_exact((g0, g1), (0.5, 0.5), "discrete-gaussian")


def inverse_pair() -> System:
    """Diagonal matrix and its inverse; collision control, zero drift."""
    g0 = exact_matrix([2, 0, 0, 0, 0, 0, "1/2", 0])
    g1 = exact_matrix(["1/2", 0, 0, 0, 0, 0, 2, 0])
    return System.from_exact((g0, g1), (0.5, 0.5), "inverse-pair")


def su2_control() -> System:
    """Two generic special-unitary elements; norms pinned at one."""
    u0 = su2_from_pair(cmath.exp(0.3j) * 0.76484218728448842,
                       cmath.exp(1.1j) * 0.64421768723769102)
    u1 = su2_from_pair(cmath.exp(2.2j) * 0.45359612142557731,
                       cmath.exp(0.7j) * 0.89120736006143531)
    return System((u0, u1), (0.5, 0.5), name="su2-control")


PRESETS = {
    "sanov": (sanov, "integer parabolic pair, fixes the real circle"),
    "twist": (twist, "sanov plus a pi/7 rotation, passes all assumptions"),
    "discrete-gaussian": (discrete_gaussian,
                          "Gaussian-integer pair, discrete-subgroup case"),
    "inverse-pair": (inverse_pair, "matrix and its inverse, collision control"),
    "su2-control": (su2_control, "special-unitary pair, non-proximal control"),
}


def get_preset(name: str) -> System:
    try:
        factory, _ = PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return factory()


def list_presets():
    """Rows of (name, generator count, exact flag, description)."""
    rows = []
    for name, (factory, desc) in sorted(PRESETS.items()):
        sys_ = factory()
        rows.append((name, sys_.size, sys_.exact is not None, desc))
    return rows
