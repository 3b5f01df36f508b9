"""Floating arithmetic for SL(2,C), exact Gaussian-rational matrix entries,
Moebius actions on the Riemann sphere, closed-form 2x2 singular value
decomposition, the top-singular-direction map, and the metrics and charts
used by the rest of the package.

Conventions:

* CP^1 points are stored as canonical unit vectors (z1, z2): Euclidean norm 1,
  first nonzero coordinate real and positive.
* The sphere metric is the normalized-determinant distance, so diam(CP^1) = 1
  and special-unitary matrices act by isometries.
* RP^1 (real lines in C) is the interval [0, pi) with angles added mod pi;
  its metric is |sin(theta - theta')|.
* The distance on SL(2,C) is the left-invariant proxy ||log(g^-1 h)||_F with
  the principal matrix logarithm (natural log).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .errors import ChartError, LogBranchError, PoleError

TAU_SVD = 1e-12          # degeneracy threshold on frob^2 - 2 for the SVD branch
TAU_PHASE = 1e-14        # pivot tie tolerance for canonical phase
NEG_AXIS_TOL = 1e-14    # relative tolerance for "eigenvalue on (-inf, 0]"


# ---------------------------------------------------------------------------
# exact scalars
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianRational:
    """Exact complex scalar with rational parts, closed under +, -, * and
    nonzero division: the parsed entries of exact generators. Products of
    words use the integer form of `exact_matrix` instead."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other):
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by exact zero")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


ExactEntries = Tuple[GaussianRational, GaussianRational,
                     GaussianRational, GaussianRational]

# (D, Re a, Im a, ..., Im d) in ints: [[a, b], [c, d]] / D with D > 0 and
# gcd 1 over all nine, a unique form, so equal tuples are equal matrices
ExactMatrix = Tuple[int, int, int, int, int, int, int, int, int]

EXACT_IDENTITY: ExactMatrix = (1, 1, 0, 0, 0, 0, 0, 1, 0)


def exact_matrix(x: ExactEntries) -> ExactMatrix:
    """Canonical integer form of Gaussian-rational entries a, b, c, d."""
    parts = [f for z in x for f in (z.re, z.im)]
    den = math.lcm(*(f.denominator for f in parts))
    return (den, *(f.numerator * (den // f.denominator) for f in parts))


def exact_mul(x: ExactMatrix, y: ExactMatrix) -> ExactMatrix:
    """Row-major product of two exact matrices in canonical form."""
    dx, ar, ai, br, bi, cr, ci, dr, di = x
    dy, er, ei, fr, fi, gr, gi, hr, hi = y
    # [[a, b], [c, d]] [[e, f], [g, h]]
    out = (dx * dy,
           ar * er - ai * ei + br * gr - bi * gi,
           ar * ei + ai * er + br * gi + bi * gr,
           ar * fr - ai * fi + br * hr - bi * hi,
           ar * fi + ai * fr + br * hi + bi * hr,
           cr * er - ci * ei + dr * gr - di * gi,
           cr * ei + ci * er + dr * gi + di * gr,
           cr * fr - ci * fi + dr * hr - di * hi,
           cr * fi + ci * fr + dr * hi + di * hr)
    g = math.gcd(*out)
    return out if g == 1 else tuple(v // g for v in out)


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupElement:
    """A 2x2 complex matrix of determinant one, row-major entries a, b, c, d."""

    a: complex
    b: complex
    c: complex
    d: complex

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1.0 + 0j, 0j, 0j, 1.0 + 0j)

    @classmethod
    def from_rows(cls, row1, row2) -> "GroupElement":
        return cls(complex(row1[0]), complex(row1[1]),
                   complex(row2[0]), complex(row2[1]))

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def trace(self) -> complex:
        return self.a + self.d

    def frobenius2(self) -> float:
        return (abs(self.a) ** 2 + abs(self.b) ** 2
                + abs(self.c) ** 2 + abs(self.d) ** 2)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return GroupElement(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GroupElement":
        # adjugate; exact for det = 1
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def transpose(self) -> "GroupElement":
        return GroupElement(self.a, self.c, self.b, self.d)

    def adjoint(self) -> "GroupElement":
        return GroupElement(self.a.conjugate(), self.c.conjugate(),
                            self.b.conjugate(), self.d.conjugate())

    def _sigma2(self) -> Optional[float]:
        """||g||_op^2 = (F^2 + sqrt(F^4 - 4)) / 2 (det 1); None at norm 1."""
        f2 = self.frobenius2()
        if f2 - 2.0 < TAU_SVD:
            return None
        return 0.5 * (f2 + math.sqrt(f2 * f2 - 4.0))

    def op_norm(self) -> float:
        """Operator norm; 1 when F^2 is within TAU_SVD of 2."""
        return math.sqrt(self._sigma2() or 1.0)

    def entries(self) -> Tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    def det_defect(self) -> float:
        return abs(self.det() - 1.0)


def su2_from_pair(alpha: complex, beta: complex) -> GroupElement:
    """Special-unitary element [[alpha, -conj(beta)], [beta, conj(alpha)]]
    from a unit pair |alpha|^2 + |beta|^2 = 1."""
    n = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha, beta = alpha / n, beta / n
    return GroupElement(alpha, -beta.conjugate(), beta, alpha.conjugate())


def random_su2(rng) -> GroupElement:
    """Haar-uniform SU(2) element from a numpy Generator."""
    v = rng.standard_normal(4)
    return su2_from_pair(complex(v[0], v[1]), complex(v[2], v[3]))


def random_element(rng, max_log2_norm: float = 20.0) -> GroupElement:
    """Random SL(2,C) element U diag(s, 1/s) V with log2 s uniform in
    [0, max_log2_norm] and U, V Haar on SU(2)."""
    s = 2.0 ** rng.uniform(0.0, max_log2_norm)
    u = random_su2(rng)
    v = random_su2(rng)
    dmat = GroupElement(s + 0j, 0j, 0j, 1.0 / s + 0j)
    return u @ dmat @ v


# ---------------------------------------------------------------------------
# extended complex plane
# ---------------------------------------------------------------------------

class _Infinity:
    """The point at infinity of the Riemann sphere (singleton)."""

    __slots__ = ()

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


# ---------------------------------------------------------------------------
# projective points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjPoint:
    """Point of CP^1 as a canonical unit vector (z1, z2)."""

    z1: complex
    z2: complex

    @classmethod
    def from_vector(cls, z1, z2) -> "ProjPoint":
        z1, z2 = complex(z1), complex(z2)
        n = math.sqrt(abs(z1) ** 2 + abs(z2) ** 2)
        if n == 0.0:
            raise ValueError("zero vector does not define a projective point")
        z1, z2 = z1 / n, z2 / n
        if abs(z1) > TAU_PHASE:
            phase = z1.conjugate() / abs(z1)
            return cls(complex(abs(z1), 0.0), z2 * phase)
        return cls(0j, complex(abs(z2), 0.0))


E1 = ProjPoint(1.0 + 0j, 0j)
E2 = ProjPoint(0j, 1.0 + 0j)


def dist_cp1(p: ProjPoint, q: ProjPoint) -> float:
    """Normalized-determinant metric on CP^1; 1 for orthogonal directions."""
    return abs(p.z1 * q.z2 - p.z2 * q.z1)


def proj_act(g: GroupElement, p: ProjPoint) -> ProjPoint:
    return ProjPoint.from_vector(g.a * p.z1 + g.b * p.z2,
                                 g.c * p.z1 + g.d * p.z2)


def psi(p: ProjPoint):
    """Chart CP^1 -> C u {inf}: ratio z1/z2, with e1*C mapped to infinity."""
    if p.z2 == 0:
        return INFINITY
    return p.z1 / p.z2


def psi_inv(z) -> ProjPoint:
    if z is INFINITY:
        return E1
    return ProjPoint.from_vector(complex(z), 1.0 + 0j)


# ---------------------------------------------------------------------------
# real lines in C
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RPoint:
    """Point of RP^1: a real line through 0 in C, stored as an angle in [0, pi)."""

    theta: float

    @classmethod
    def from_angle(cls, theta: float) -> "RPoint":
        t = math.fmod(theta, math.pi)
        if t < 0.0:
            t += math.pi
        if t >= math.pi:  # fmod rounding at the seam
            t -= math.pi
        return cls(t)

    @classmethod
    def from_complex(cls, z: complex) -> "RPoint":
        if z == 0:
            raise ValueError("zero does not define a line")
        return cls.from_angle(cmath.phase(z))

    def direction(self) -> complex:
        return cmath.exp(1j * self.theta)

    def __mul__(self, other: "RPoint") -> "RPoint":
        # RP^1 group law: multiply representatives, i.e. add angles mod pi
        return RPoint.from_angle(self.theta + other.theta)

    def inverse_el(self) -> "RPoint":
        return RPoint.from_angle(-self.theta)


def dist_rp1(x: RPoint, y: RPoint) -> float:
    return abs(math.sin(x.theta - y.theta))


def proj_line(x: RPoint, w: complex) -> complex:
    """Orthogonal projection of w onto the line of angle x.theta."""
    z = x.direction()
    return (w * z.conjugate()).real * z


# ---------------------------------------------------------------------------
# Moebius action on the sphere
# ---------------------------------------------------------------------------

def mobius_apply(g: GroupElement, z):
    """Apply (az+b)/(cz+d) with the standard conventions at infinity."""
    if z is INFINITY:
        if g.c == 0:
            return INFINITY
        return g.a / g.c
    z = complex(z)
    den = g.c * z + g.d
    if den == 0:
        return INFINITY
    return (g.a * z + g.b) / den


def mobius_derivative(g: GroupElement, z: complex) -> complex:
    """phi_g'(z) = 1/(cz+d)^2; raises PoleError at the pole."""
    den = g.c * complex(z) + g.d
    if den == 0:
        raise PoleError("derivative at the pole of the Moebius map")
    return 1.0 / (den * den)


# ---------------------------------------------------------------------------
# singular value decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SvdDecomposition:
    """g = U diag(sigma, 1/sigma) V with U, V special unitary, sigma >= 1."""

    u: GroupElement
    sigma: float
    v: GroupElement

    def reconstruct(self) -> GroupElement:
        dmat = GroupElement(self.sigma + 0j, 0j, 0j, 1.0 / self.sigma + 0j)
        return self.u @ dmat @ self.v


def _top_eigvec_hermitian(h11: float, h12: complex, h22: float,
                          lam_min: float) -> Tuple[complex, complex]:
    # columns of (H - lam_min I) span the top eigenspace, and subtracting the
    # SMALL eigenvalue avoids cancellation; pick the larger column
    v1 = (complex(h11 - lam_min), h12.conjugate())
    v2 = (h12, complex(h22 - lam_min))
    n1 = abs(v1[0]) ** 2 + abs(v1[1]) ** 2
    n2 = abs(v2[0]) ** 2 + abs(v2[1]) ** 2
    return v1 if n1 >= n2 else v2


def svd2(g: GroupElement) -> SvdDecomposition:
    """Closed-form SVD from the Hermitian eigenproblem of g* g.

    In the degenerate branch (operator norm 1 within TAU_SVD) returns
    U = g, sigma = 1, V = identity.
    """
    sigma2 = g._sigma2()
    if sigma2 is None:
        return SvdDecomposition(g, 1.0, GroupElement.identity())
    sigma = math.sqrt(sigma2)

    gs = g.adjoint() @ g  # Hermitian, eigenvalues sigma^2 and sigma^-2
    alpha, beta = _top_eigvec_hermitian(gs.a.real, gs.b, gs.d.real,
                                        1.0 / sigma2)
    n = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    alpha, beta = alpha / n, beta / n
    # V in SU(2) with V (alpha,beta)^T = e1
    v = GroupElement(alpha.conjugate(), beta.conjugate(), -beta, alpha)
    # U is the SU(2) completion of the first column of g V*, which equals
    # sigma * Ue1 and is numerically stable at large norms (the second
    # column of g V* is a small difference of large terms; the completion
    # determines it exactly instead)
    gv = g @ v.adjoint()
    u = su2_from_pair(gv.a, gv.c)
    return SvdDecomposition(u, sigma, v)


def boundary_direction(g: GroupElement) -> ProjPoint:
    """Top left-singular direction L(g) = U e1*C; e1*C when ||g||_op = 1."""
    sigma2 = g._sigma2()
    if sigma2 is None:
        return E1
    h = g @ g.adjoint()  # eigenvector for sigma^2 spans L(g)
    v1, v2 = _top_eigvec_hermitian(h.a.real, h.b, h.d.real, 1.0 / sigma2)
    return ProjPoint.from_vector(v1, v2)


# ---------------------------------------------------------------------------
# distance on the group
# ---------------------------------------------------------------------------

def principal_log_norm(m: GroupElement) -> float:
    """||log m||_F for the principal logarithm of m in SL(2,C) (natural log).

    Uses log(m) = b * (m - (t/2) I) where t = tr(m) and b = log(lam)/delta
    for the eigenvalues t/2 +- delta. Raises LogBranchError when an
    eigenvalue lies on the closed negative real axis.
    """
    t = m.trace()
    delta = cmath.sqrt(t * t * 0.25 - 1.0)
    lam = t * 0.5 + delta

    for ev in (lam, t * 0.5 - delta):
        if ev.real < 0 and abs(ev.imag) <= NEG_AXIS_TOL * abs(ev.real):
            raise LogBranchError("eigenvalue on the closed negative real axis")
        if ev == 0:
            raise LogBranchError("singular matrix")

    if abs(delta) < 1e-6 * abs(t):
        # near-parabolic: b = (2/t) * atanh(w)/w with w = 2 delta / t,
        # expanded to avoid cancellation in log(lam)/delta
        w = 2.0 * delta / t
        w2 = w * w
        b = (2.0 / t) * (1.0 + w2 / 3.0 + w2 * w2 / 5.0)
    else:
        b = cmath.log(lam) / delta

    half_t = t * 0.5
    la, lb, lc, ld = (b * (m.a - half_t), b * m.b, b * m.c, b * (m.d - half_t))
    return math.sqrt(abs(la) ** 2 + abs(lb) ** 2 + abs(lc) ** 2 + abs(ld) ** 2)


def dist_g_proxy(g: GroupElement, h: GroupElement) -> float:
    """Left-invariant distance proxy ||log(g^-1 h)||_F (natural log).

    Exactly left-invariant by construction; raises LogBranchError when the
    principal logarithm of g^-1 h does not exist.
    """
    return principal_log_norm(g.inverse() @ h)


# ---------------------------------------------------------------------------
# chart on the group
# ---------------------------------------------------------------------------

def chart_g(g: GroupElement) -> Tuple[float, float, float, float, float, float]:
    """Six real coordinates (Re, Im of a-1, b, c); injective near the identity.

    The fourth entry is recovered as d = (1 + bc)/a, so the chart fails
    exactly when a = 0.
    """
    if abs(g.a) <= 1e-14:
        raise ChartError("chart undefined at a = 0")
    am1 = g.a - 1.0
    return (am1.real, am1.imag, g.b.real, g.b.imag, g.c.real, g.c.imag)


def chart_g_inverse(coords) -> GroupElement:
    x0, x1, x2, x3, x4, x5 = (float(t) for t in coords)
    a = complex(1.0 + x0, x1)
    if abs(a) <= 1e-14:
        raise ChartError("chart inverse undefined at a = 0")
    b = complex(x2, x3)
    c = complex(x4, x5)
    d = (1.0 + b * c) / a
    return GroupElement(a, b, c, d)
