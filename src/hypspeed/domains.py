"""Canonical starlike-at-infinity domains and their closed-form maps onto H.

Every domain below is closed under upward translation (w + it stays inside
for t >= 0).  The map chains are normalised so that the upward end -- the
prime end every orbit drifts into -- goes to infinity of the right half
plane and the domain's canonical base point goes exactly to 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import GL_NODES, GL_WEIGHTS, DomainError, in_halfplane, k_half
from .mapchain import (HALF_PI, TWO_PI, Affine, ExpScale, LogPolar, Power,
                       RiemannMapChain)


class UnsupportedDomainOperation(ValueError):
    """The requested operation has no closed form for this domain."""


def _finite_point(p) -> complex:
    p = complex(p)
    if not (math.isfinite(p.real) and math.isfinite(p.imag)):
        raise DomainError(f"domain point {p} must be finite")
    return p


# ---------------------------------------------------------------------------
# domain variants


@dataclass(frozen=True)
class HalfPlaneRight:
    """{Re w > Re p}."""

    p: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "p", _finite_point(self.p))


@dataclass(frozen=True)
class Strip:
    """{0 < Re z < r}."""

    r: float

    def __post_init__(self):
        if not (self.r > 0 and math.isfinite(self.r)):
            raise DomainError("strip width must be positive and finite")
        if not math.isfinite(math.pi / self.r):
            raise DomainError(f"strip width {self.r!r} is too small: pi/r overflows")


@dataclass(frozen=True)
class Sector:
    """p + i*V(alpha, beta) with V = {r e^{i theta}: r > 0, -alpha < theta < beta}.

    alpha, beta in [0, pi] with alpha + beta > 0; the two boundary rays leave
    the apex p at angles pi/2 - alpha and pi/2 + beta.
    """

    p: complex
    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "p", _finite_point(self.p))
        if not (0.0 <= self.alpha <= math.pi and 0.0 <= self.beta <= math.pi):
            raise DomainError("sector half-angles must lie in [0, pi]")
        if not self.alpha + self.beta > 0.0:
            raise DomainError("sector requires alpha + beta > 0")

    @property
    def ray_lo(self) -> float:
        return HALF_PI - self.alpha

    @property
    def ray_hi(self) -> float:
        return HALF_PI + self.beta


@dataclass(frozen=True)
class Koebe:
    """The plane minus the downward slit {Re z = Re p, Im z <= Im p}."""

    p: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "p", _finite_point(self.p))


@dataclass(frozen=True)
class Comb:
    """The plane minus symmetric vertical slits at Re = +-a_j of height b_j.

    Only finitely many teeth are materialised; Euclidean queries are valid
    within the recorded extent (|Re| <= a_last, Im <= b_last) where omitted
    farther teeth cannot influence the answer.
    """

    teeth: tuple[tuple[float, float], ...]

    def __init__(self, teeth):
        teeth = tuple((float(a), float(b)) for a, b in teeth)
        if not teeth:
            raise DomainError("comb needs at least one tooth")
        a_prev, b_prev = None, None
        for a, b in teeth:
            if not (math.isfinite(a) and math.isfinite(b)):
                raise DomainError("tooth coordinates must be finite")
            if a <= 0:
                raise DomainError("tooth abscissae must be positive")
            if a_prev is not None and not (a > a_prev and b > b_prev):
                raise DomainError("tooth abscissae and heights must strictly increase")
            a_prev, b_prev = a, b
        object.__setattr__(self, "teeth", teeth)

    @property
    def extent(self) -> float:
        return self.teeth[-1][1]

    @property
    def max_abscissa(self) -> float:
        return self.teeth[-1][0]


DomainSpec = HalfPlaneRight | Strip | Sector | Koebe | Comb


@dataclass(frozen=True)
class OmegaSign:
    """Selects the enlarged domain Omega^+ or Omega^- relative to ref."""

    side: str
    ref: complex

    def __post_init__(self):
        if self.side not in ("plus", "minus"):
            raise ValueError("side must be 'plus' or 'minus'")
        object.__setattr__(self, "ref", complex(self.ref))


# ---------------------------------------------------------------------------
# construction and JSON schema


def build_domain(spec) -> DomainSpec:
    """Validate raw parameters (a DomainSpec or its JSON dict form)."""
    if isinstance(spec, (HalfPlaneRight, Strip, Sector, Koebe, Comb)):
        return spec
    if not isinstance(spec, dict):
        raise DomainError(f"cannot build a domain from {type(spec).__name__}")
    return domain_from_json(spec)


def domain_from_json(obj: dict) -> DomainSpec:
    try:
        kind = obj["type"]
        if kind == "halfplane":
            re, im = obj["p"]
            return HalfPlaneRight(complex(re, im))
        if kind == "strip":
            return Strip(float(obj["r"]))
        if kind == "sector":
            re, im = obj["p"]
            return Sector(complex(re, im), float(obj["alpha"]), float(obj["beta"]))
        if kind == "koebe":
            re, im = obj["p"]
            return Koebe(complex(re, im))
        if kind == "comb":
            return Comb(obj["teeth"])
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"malformed domain spec: {exc}") from exc
    raise DomainError(f"unknown domain type {obj.get('type')!r}")


def domain_to_json(domain: DomainSpec) -> dict:
    if isinstance(domain, HalfPlaneRight):
        return {"type": "halfplane", "p": [domain.p.real, domain.p.imag]}
    if isinstance(domain, Strip):
        return {"type": "strip", "r": domain.r}
    if isinstance(domain, Sector):
        return {"type": "sector", "p": [domain.p.real, domain.p.imag],
                "alpha": domain.alpha, "beta": domain.beta}
    if isinstance(domain, Koebe):
        return {"type": "koebe", "p": [domain.p.real, domain.p.imag]}
    if isinstance(domain, Comb):
        return {"type": "comb", "teeth": [[a, b] for a, b in domain.teeth]}
    raise DomainError(f"unknown domain {domain!r}")


# ---------------------------------------------------------------------------
# membership


def contains(domain: DomainSpec, w) -> bool:
    """Open-set membership test (a boolean array for a complex array)."""
    if isinstance(w, np.ndarray):
        return _contains_array(domain, w.astype(complex, copy=False))
    return _contains_point(domain, complex(w))


def _contains_point(domain: DomainSpec, w: complex) -> bool:
    # called directly by delta, whose quadrature integrands need no dispatch
    if isinstance(domain, HalfPlaneRight):
        return w.real > domain.p.real
    if isinstance(domain, Strip):
        return 0.0 < w.real < domain.r
    if isinstance(domain, Sector):
        u = w - domain.p
        if u == 0:
            return False
        rel = math.fmod(cmath.phase(u) - domain.ray_lo, TWO_PI)
        if rel < 0:
            rel += TWO_PI
        return 0.0 < rel < domain.alpha + domain.beta
    if isinstance(domain, Koebe):
        return not (w.real == domain.p.real and w.imag <= domain.p.imag)
    if isinstance(domain, Comb):
        for a, b in domain.teeth:
            if abs(w.real) == a and w.imag <= b:
                return False
        return True
    raise DomainError(f"unknown domain {domain!r}")


def _contains_array(domain: DomainSpec, w: np.ndarray) -> np.ndarray:
    re, im = w.real, w.imag
    if isinstance(domain, HalfPlaneRight):
        return re > domain.p.real
    if isinstance(domain, Strip):
        return (0.0 < re) & (re < domain.r)
    if isinstance(domain, Sector):
        u = w - domain.p
        rel = np.fmod(np.arctan2(u.imag, u.real) - domain.ray_lo, TWO_PI)
        rel = np.where(rel < 0, rel + TWO_PI, rel)
        return (u != 0) & (0.0 < rel) & (rel < domain.alpha + domain.beta)
    if isinstance(domain, Koebe):
        return ~((re == domain.p.real) & (im <= domain.p.imag))
    if isinstance(domain, Comb):
        out = np.ones(w.shape, dtype=bool)
        for a, b in domain.teeth:
            out &= ~((np.abs(re) == a) & (im <= b))
        return out
    raise DomainError(f"unknown domain {domain!r}")


# ---------------------------------------------------------------------------
# maps onto the right half plane


def _snap(w: complex) -> complex:
    """Zero out components below double resolution of the other one; keeps
    exactly-axial chain constants exactly axial."""
    re, im = w.real, w.imag
    scale = max(abs(re), abs(im))
    if scale == 0.0:
        return w
    if abs(re) < 1e-15 * scale:
        re = 0.0
    if abs(im) < 1e-15 * scale:
        im = 0.0
    return complex(re, im)


def canonical_base_point(domain: DomainSpec) -> complex:
    """The point each chain sends exactly to 1 (the model image of h(0))."""
    if isinstance(domain, HalfPlaneRight):
        return domain.p + 1.0
    if isinstance(domain, Strip):
        return complex(0.5 * domain.r, 0.0)
    if isinstance(domain, Sector):
        return domain.p + _snap(1j * cmath.exp(0.5j * (domain.beta - domain.alpha)))
    if isinstance(domain, Koebe):
        return domain.p + 1j
    raise UnsupportedDomainOperation("comb domains have no closed-form base normalisation")


def to_halfplane(domain: DomainSpec) -> RiemannMapChain:
    """Biholomorphism domain -> H sending the upward end to infinity.

    HalfPlaneRight: w - p.
    Strip:          -i exp(-i pi (z - r)/r), i.e. the top end escapes to inf.
    Sector:         translate by -p, rotate the bisector onto (0, inf) with
                    -i exp(-i(beta-alpha)/2), then the power pi/(alpha+beta).
    Koebe:          sqrt(-i (z - p)) with the branch fixed by sqrt(1) = 1.
    """
    if isinstance(domain, HalfPlaneRight):
        return RiemannMapChain([Affine(1.0, -domain.p)])
    if isinstance(domain, Strip):
        return RiemannMapChain([Affine(1.0, -domain.r), ExpScale(-1j * math.pi / domain.r)])
    if isinstance(domain, Sector):
        half = 0.5 * (domain.alpha + domain.beta)
        rot = _snap(-1j * cmath.exp(-0.5j * (domain.beta - domain.alpha)))
        return RiemannMapChain([
            Affine(1.0, -domain.p),
            Affine(rot, 0.0),
            Power(math.pi / (domain.alpha + domain.beta), -half, half),
        ])
    if isinstance(domain, Koebe):
        return RiemannMapChain([
            Affine(1.0, -domain.p),
            Affine(-1j, 0.0),
            Power(0.5, -math.pi, math.pi),
        ])
    raise UnsupportedDomainOperation("no closed-form map; use quasihyp_lower")


def map_to_halfplane(domain: DomainSpec, w) -> LogPolar:
    """Evaluate the chain at an interior point, staying in log-polar form."""
    if not contains(domain, w):
        raise DomainError(f"{w} is not in the domain")
    return in_halfplane(to_halfplane(domain).forward_lp(complex(w)))


def k_domain(domain: DomainSpec, w1, w2) -> float:
    """Hyperbolic distance of the domain via its half-plane chain."""
    if isinstance(domain, Comb):
        raise UnsupportedDomainOperation("comb distances are available as bounds only")
    return k_half(map_to_halfplane(domain, w1), map_to_halfplane(domain, w2))


# ---------------------------------------------------------------------------
# Euclidean distance to the complement


def _dist_to_ray(q: complex, apex: complex, direction: complex,
                 s_lo: float = 0.0, s_hi: float = math.inf) -> float:
    """Distance from q to {apex + s*direction : s in [s_lo, s_hi]}, |direction|=1."""
    if s_hi < s_lo:
        return math.inf
    v = q - apex
    s = v.real * direction.real + v.imag * direction.imag
    s = min(max(s, s_lo), s_hi)
    return abs(v - s * direction)


def _dist_to_vertical_slit(q: complex, x: float, top: float) -> float:
    """Distance from q to {x + iy : y <= top}."""
    dx = q.real - x
    if q.imag <= top:
        return abs(dx)
    return math.hypot(dx, q.imag - top)


def _dist_to_ray_array(q: np.ndarray, apex: complex, direction: complex,
                       s_lo: float, s_hi: float) -> np.ndarray:
    """_dist_to_ray for each point of q, on a nonempty parameter range."""
    vr, vi = q.real - apex.real, q.imag - apex.imag
    s = np.clip(vr * direction.real + vi * direction.imag, s_lo, s_hi)
    return np.hypot(vr - s * direction.real, vi - s * direction.imag)


def _dist_to_vertical_slit_array(q: np.ndarray, x: float, top: float) -> np.ndarray:
    dx = q.real - x
    return np.where(q.imag <= top, np.abs(dx), np.hypot(dx, q.imag - top))


def delta(domain: DomainSpec, p) -> float:
    """Euclidean distance from an interior point to the complement."""
    p = complex(p)
    if not _contains_point(domain, p):
        raise DomainError(f"{p} is not in the domain")
    if isinstance(domain, HalfPlaneRight):
        return p.real - domain.p.real
    if isinstance(domain, Strip):
        return min(p.real, domain.r - p.real)
    if isinstance(domain, Sector):
        d_lo = _dist_to_ray(p, domain.p, cmath.exp(1j * domain.ray_lo))
        d_hi = _dist_to_ray(p, domain.p, cmath.exp(1j * domain.ray_hi))
        return min(d_lo, d_hi)
    if isinstance(domain, Koebe):
        return _dist_to_vertical_slit(p, domain.p.real, domain.p.imag)
    if isinstance(domain, Comb):
        if p.imag > domain.extent or abs(p.real) > domain.max_abscissa:
            raise DomainError(
                "query outside the materialised comb extent; omitted teeth could be nearer"
            )
        best = math.inf
        for a, b in domain.teeth:
            best = min(best,
                       _dist_to_vertical_slit(p, a, b),
                       _dist_to_vertical_slit(p, -a, b))
        return best
    raise DomainError(f"unknown domain {domain!r}")


def _clip_ray_to_halfplane(apex_re: float, d_re: float, c: float, keep_le: bool):
    """Parameter range of {apex + s*d : s >= 0} inside {Re <= c} (or >= c).
    Returns (s_lo, s_hi); empty when s_hi < s_lo."""
    if abs(d_re) < 1e-15:
        ok = apex_re <= c if keep_le else apex_re >= c
        return (0.0, math.inf) if ok else (1.0, 0.0)
    s_cross = (c - apex_re) / d_re
    if keep_le == (d_re > 0):
        return (0.0, s_cross)
    return (max(0.0, s_cross), math.inf)


def _wedge_pieces(sector: Sector, c: float, keep_le: bool):
    """The complement wedge of the sector cut to {Re <= c} (keep_le) or
    {Re >= c}: its boundary rays clipped to that half plane, as
    (direction, s_lo, s_hi), and the intervals of heights y at which c + iy
    lies in the closed wedge."""
    apex = sector.p
    rays = []
    for ang in (sector.ray_lo, sector.ray_hi):
        d = cmath.exp(1j * ang)
        s_lo, s_hi = _clip_ray_to_halfplane(apex.real, d.real, c, keep_le)
        if s_hi >= s_lo:
            rays.append((d, s_lo, s_hi))

    # portion of the line {Re = c} inside the closed wedge
    crossings: list[float] = []
    for ang in (sector.ray_lo, sector.ray_hi):
        d = cmath.exp(1j * ang)
        if abs(d.real) < 1e-15:
            # a vertical ray sitting on the line bounds the in-wedge interval
            # at the apex height
            if abs(apex.real - c) <= 1e-12 * max(1.0, abs(c)):
                crossings.append(apex.imag)
            continue
        s_cross = (c - apex.real) / d.real
        if s_cross >= 0.0:
            crossings.append(apex.imag + s_cross * d.imag)
    crossings.sort()
    edges = [-math.inf, *crossings, math.inf]
    spans = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        if hi < lo:
            continue
        if math.isinf(lo) and math.isinf(hi):
            probe = 0.0 if not crossings else crossings[0]
        elif math.isinf(lo):
            probe = hi - max(1.0, abs(hi))
        elif math.isinf(hi):
            probe = lo + max(1.0, abs(lo))
        else:
            probe = 0.5 * (lo + hi)
        if not contains(sector, complex(c, probe)):
            spans.append((lo, hi))
    return rays, spans


def _wedge_halfplane_distance(sector: Sector, q, c: float, keep_le: bool):
    """Distance from q, a point or an array of points, to (complement wedge
    of the sector) intersected with {Re <= c} (keep_le) or {Re >= c}.
    Returns +inf for an empty set."""
    rays, spans = _wedge_pieces(sector, c, keep_le)
    if isinstance(q, np.ndarray):
        best = np.full(q.shape, math.inf)
        for d, s_lo, s_hi in rays:
            best = np.minimum(best, _dist_to_ray_array(q, sector.p, d, s_lo, s_hi))
        for lo, hi in spans:
            best = np.minimum(best, np.hypot(q.real - c, q.imag - np.clip(q.imag, lo, hi)))
        return best
    best = math.inf
    for d, s_lo, s_hi in rays:
        best = min(best, _dist_to_ray(q, sector.p, d, s_lo, s_hi))
    for lo, hi in spans:
        y = min(max(q.imag, lo), hi)
        best = min(best, math.hypot(q.real - c, q.imag - y))
    return best


def delta_pm(domain: DomainSpec, sign: OmegaSign, q) -> float:
    """Distance to the complement of Omega^+ = Omega u {Re > Re ref} (or
    Omega^- with Re < Re ref); +inf when the enlarged domain is the plane.
    An array q gives an array."""
    batch = isinstance(q, np.ndarray)
    q = q.astype(complex, copy=False) if batch else complex(q)
    if not contains(domain, sign.ref):
        raise DomainError("the Omega^+- reference point must lie in the domain")
    c = sign.ref.real
    plus = sign.side == "plus"
    if batch:
        return _delta_pm_array(domain, q, c, plus)
    if not (contains(domain, q) or (q.real > c if plus else q.real < c)):
        raise DomainError(f"{q} is not in Omega^{'+' if plus else '-'}")
    # complement(Omega^+) = complement(Omega) ∩ {Re <= ref}
    if isinstance(domain, HalfPlaneRight):
        # interior ref has Re ref > Re p, so only the plus side keeps the wall
        return q.real - domain.p.real if plus else math.inf
    if isinstance(domain, Strip):
        # interior ref: 0 < Re ref < r; one wall survives on each side
        return q.real if plus else domain.r - q.real
    if isinstance(domain, Koebe):
        ok = domain.p.real <= c if plus else domain.p.real >= c
        return _dist_to_vertical_slit(q, domain.p.real, domain.p.imag) if ok else math.inf
    if isinstance(domain, Comb):
        best = math.inf
        for a, b in domain.teeth:
            for x in (a, -a):
                if (x <= c) if plus else (x >= c):
                    best = min(best, _dist_to_vertical_slit(q, x, b))
        return best
    if isinstance(domain, Sector):
        return _wedge_halfplane_distance(domain, q, c, keep_le=plus)
    raise DomainError(f"unknown domain {domain!r}")


def _delta_pm_array(domain: DomainSpec, q: np.ndarray, c: float, plus: bool) -> np.ndarray:
    outside = ~(contains(domain, q) | ((q.real > c) if plus else (q.real < c)))
    if outside.any():
        raise DomainError(f"{q[outside][0]} is not in Omega^{'+' if plus else '-'}")
    nowhere = np.full(q.shape, math.inf)
    if isinstance(domain, HalfPlaneRight):
        return q.real - domain.p.real if plus else nowhere
    if isinstance(domain, Strip):
        return q.real.copy() if plus else domain.r - q.real
    if isinstance(domain, Koebe):
        ok = domain.p.real <= c if plus else domain.p.real >= c
        return _dist_to_vertical_slit_array(q, domain.p.real, domain.p.imag) if ok else nowhere
    if isinstance(domain, Comb):
        best = nowhere
        for a, b in domain.teeth:
            for x in (a, -a):
                if (x <= c) if plus else (x >= c):
                    best = np.minimum(best, _dist_to_vertical_slit_array(q, x, b))
        return best
    if isinstance(domain, Sector):
        return _wedge_halfplane_distance(domain, q, c, keep_le=plus)
    raise DomainError(f"unknown domain {domain!r}")


# ---------------------------------------------------------------------------
# quasi-hyperbolic lower bound along the imaginary axis

def _gl_panel(f, lo: float, hi: float) -> float:
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    xs = mid + half * GL_NODES
    return half * float(np.dot(GL_WEIGHTS, [f(x) for x in xs]))


def _adaptive(f, lo: float, hi: float, whole: float, rel_tol: float = 1e-9,
              depth: int = 48) -> float:
    """Integral of f over [lo, hi] by bisection; `whole` is the panel over
    [lo, hi], already computed by the caller, so each node adds two panels."""
    mid = 0.5 * (lo + hi)
    left, right = _gl_panel(f, lo, mid), _gl_panel(f, mid, hi)
    if abs(left + right - whole) <= rel_tol * max(1.0, abs(left + right)):
        return left + right
    if depth <= 0:
        raise ValueError(f"quadrature did not converge on [{lo!r}, {hi!r}]")
    return (_adaptive(f, lo, mid, left, rel_tol, depth - 1)
            + _adaptive(f, mid, hi, right, rel_tol, depth - 1))


def _comb_axis_breakpoints(comb: Comb, t0: float, t1: float) -> list[float]:
    """Points where the active nearest tooth (or its const/slant regime)
    can change along {ir}: tooth tops and pairwise crossovers, all exact."""
    teeth = comb.teeth
    pts = {t0, t1}
    for a, b in teeth:
        if t0 < b < t1:
            pts.add(b)
    n = len(teeth)
    for i in range(n):
        ai, bi = teeth[i]
        for j in range(n):
            if i == j:
                continue
            aj, bj = teeth[j]
            # slant of tooth i (r > bi) crossing the constant a_j of tooth j
            if aj > ai:
                r = bi + math.sqrt(aj * aj - ai * ai)
                if t0 < r < t1:
                    pts.add(r)
            # slant of tooth i crossing slant of tooth j
            if bj != bi:
                r = 0.5 * ((aj * aj - ai * ai) / (bj - bi) + bi + bj)
                if r > max(bi, bj) and t0 < r < t1:
                    pts.add(r)
    return sorted(pts)


def _comb_piece_integral(comb: Comb, lo: float, hi: float) -> float:
    """Exact integral of dr/delta(ir) over one piece with a fixed active tooth."""
    mid = 0.5 * (lo + hi)
    best, active = math.inf, None
    for a, b in comb.teeth:
        d = a if mid <= b else math.hypot(a, mid - b)
        if d < best:
            best, active = d, (a, b)
    a, b = active
    if hi <= b:
        return (hi - lo) / a
    # 1/hypot(a, r-b) integrates to asinh((r-b)/a)
    return math.asinh((hi - b) / a) - math.asinh((lo - b) / a)


def _comb_axis_integrals(comb: Comb, t0: float, heights) -> list[float]:
    """(1/4) * integral of dr/delta(ir) over [t0, h] for each h of the
    increasing `heights`, from one left-to-right pass over the pieces.

    Every height but the last must be a tooth top, hence a breakpoint: the
    pieces below it, and the order of their sum, are those of a pass that
    ends there.
    """
    if not t0 <= heights[0]:
        raise ValueError("need t0 <= t1")
    if not contains(comb, complex(0.0, t0)):
        raise DomainError("segment exits the domain")
    if heights[-1] > comb.extent:
        raise DomainError("segment exceeds the materialised comb extent")
    pts = _comb_axis_breakpoints(comb, t0, heights[-1])
    total, upto = 0.0, {t0: 0.0}
    for lo, hi in zip(pts[:-1], pts[1:]):
        total += _comb_piece_integral(comb, lo, hi)
        upto[hi] = total
    return [0.25 * upto[h] for h in heights]


def quasihyp_lower(domain: DomainSpec, t0: float, t1: float) -> float:
    """(1/4) * integral of dr/delta(ir) for r in [t0, t1].

    The classical density bound kappa >= 1/(4 delta) makes this a lower bound
    for the hyperbolic length of the vertical segment; when that segment is a
    geodesic of the domain (combs, Koebe{0}, symmetric sectors at 0) it lower
    bounds the hyperbolic distance itself.  Where delta(ir) grows like r
    (Koebe, sectors) the quadrature converges for t1/t0 up to about 1e15 and
    raises ValueError beyond.
    """
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"segment bounds must be finite, got [{t0!r}, {t1!r}]")
    if t1 < t0:
        raise ValueError("need t0 <= t1")
    if t1 == t0:
        return 0.0
    if isinstance(domain, Comb):
        return _comb_axis_integrals(domain, t0, [t1])[0]
    if not contains(domain, complex(0.0, t0)):
        raise DomainError("segment exits the domain")  # upward-closed: t0 decides

    def f(r: float) -> float:
        return 1.0 / delta(domain, complex(0.0, r))

    return 0.25 * _adaptive(f, t0, t1, _gl_panel(f, t0, t1))
