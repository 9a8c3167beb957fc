"""Canonical starlike-at-infinity domains and their closed-form maps onto H.

Every domain below is closed under upward translation (w + it stays inside
for t >= 0).  The maps are normalised so that the upward end -- the
prime end every orbit drifts into -- goes to infinity of the right half
plane and the model's base point h(0) = p + base goes exactly to 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import DomainError, in_halfplane, k_half
from .mapchain import HALF_PI, LOG2, RiemannMapChain


class UnsupportedDomainOperation(ValueError):
    """The requested operation has no closed form for this domain."""


def _finite_point(p) -> complex:
    p = complex(p)
    if not (math.isfinite(p.real) and math.isfinite(p.imag)):
        raise DomainError(f"domain point {p} must be finite")
    return p


#: sin and cos at the doubles +-pi/2 and pi, which stand for the axes
_AXES = {HALF_PI: (1.0, 0.0), -HALF_PI: (-1.0, 0.0), math.pi: (0.0, -1.0)}


def _sin_cos(angle: float) -> tuple[float, float]:
    """(sin, cos) of an angle: exact at the doubles +-pi/2 and pi, libm's
    elsewhere, so that a tilt of any other double is kept however small."""
    return _AXES.get(angle) or (math.sin(angle), math.cos(angle))


def _unit_rays(alpha: float, beta: float) -> tuple[complex, complex]:
    """The unit directions i e^{-i alpha} and i e^{i beta} of the rays at
    pi/2 - alpha and pi/2 + beta, from sin and cos of the half-angles (no
    rounded pi/2 - alpha): exact axes at a half-angle 0, pi/2 or pi, and a
    point on the diagonal of alpha = pi/4 on the side where the double
    alpha puts it."""
    (sa, ca), (sb, cb) = _sin_cos(alpha), _sin_cos(beta)
    return complex(sa, ca), complex(0.0 - sb, cb)  # 0.0 - 0.0 keeps a zero positive


# ---------------------------------------------------------------------------
# domain variants


@dataclass(frozen=True)
class HalfPlaneRight:
    """{Re w > Re p}: the sector p + iV(pi, 0), whose angles and rays it
    declares for the sector routines."""

    p: complex = 0j
    alpha, beta = math.pi, 0.0
    rays = _unit_rays(alpha, beta)

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
    the apex p at angles pi/2 - alpha and pi/2 + beta.  Their unit
    directions, `rays`, are kept on the object outside its fields (so
    outside ==, hash and repr); the map, membership, distances and
    quadrature all read them.
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
        if not math.isfinite(math.pi / (self.alpha + self.beta)):
            raise DomainError(f"sector opening {self.alpha + self.beta!r} is too small: "
                              "pi/(alpha+beta) overflows")
        object.__setattr__(self, "rays", _unit_rays(self.alpha, self.beta))


@dataclass(frozen=True)
class Koebe:
    """The plane minus the downward slit {Re z = Re p, Im z <= Im p}: the
    sector p + iV(pi, pi), whose angles and rays it declares for the sector
    routines."""

    p: complex = 0j
    alpha, beta = math.pi, math.pi
    rays = _unit_rays(alpha, beta)

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

#: the domains with a sector's angles and rays
_SECTORS = (HalfPlaneRight, Sector, Koebe)


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
    """Open-set membership test (a boolean array for a complex array), in
    one body that runs a point as a Python complex, with no numpy call, and
    a batch as arrays; x ^ True negates a bool or a boolean array.

    A sector point u = w - p is decided by the signs of its cross products
    with the two rays, which are exact for an axial ray: u lies left of the
    lower ray and right of the upper one.  Past an opening of pi the sector
    is the plane less a closed convex wedge, which lo + hi points into, so
    either sign suffices; so does u.(lo + hi) < 0, which the slit plane
    (pi, pi) needs on the ray opposite its slit.  A point that is not
    finite lies in no domain (a batch decides it as 0: no 0 * inf warns)."""
    batch = isinstance(w, np.ndarray)
    w = w.astype(complex, copy=False) if batch else complex(w)
    finite = np.isfinite(w) if batch else cmath.isfinite(w)
    if batch:
        w = np.where(finite, w, 0j)
    re, im = w.real, w.imag
    if isinstance(domain, _SECTORS):
        (lo, hi), u = domain.rays, w - domain.p
        left = lo.real * u.imag - lo.imag * u.real > 0.0
        right = u.real * hi.imag - u.imag * hi.real > 0.0
        if domain.alpha + domain.beta <= math.pi:
            inside = left & right
        else:
            mid = lo + hi
            inside = left | right | (u.real * mid.real + u.imag * mid.imag < 0.0)
    elif isinstance(domain, Strip):
        inside = (0.0 < re) & (re < domain.r)
    elif isinstance(domain, Comb):
        on_slit = False
        for a, b in domain.teeth:
            on_slit = on_slit | ((abs(re) == a) & (im <= b))
        inside = on_slit ^ True
    else:
        raise DomainError(f"unknown domain {domain!r}")
    inside = inside & finite
    return inside if batch else bool(inside)


# ---------------------------------------------------------------------------
# maps onto the right half plane


def to_halfplane(domain: DomainSpec) -> RiemannMapChain:
    """Biholomorphism domain -> H sending the upward end to infinity and
    h(0) = p + base to 1, in closed form at u = w - p.

    Strip:  -i exp(-i pi (u - r)/r) with p = 0, base r/2.
    Sector: (rot u)^(pi/(alpha+beta)), rot = -i exp(-i(beta-alpha)/2)
            turning the bisector onto (0, inf), base i exp(i(beta-alpha)/2).
            A half plane is the sector (pi, 0), where this is u with base 1;
            a Koebe domain is the sector (pi, pi), where it is sqrt(-i u),
            the branch fixed by sqrt(1) = 1, with base i.

    The first call for a domain object builds the map and keeps it on the
    object, outside its fields (so outside ==, hash and repr); later calls
    return that same map.  Domains are frozen, so it never goes stale.
    """
    fmap = getattr(domain, "__dict__", {}).get("_halfplane_map")
    if fmap is None:
        fmap = _build_map(domain)
        object.__setattr__(domain, "_halfplane_map", fmap)
    return fmap


def _build_map(domain: DomainSpec) -> RiemannMapChain:
    if isinstance(domain, Strip):
        return RiemannMapChain(0j, complex(0.5 * domain.r, 0.0), width=domain.r,
                               k=math.pi / domain.r)
    if isinstance(domain, _SECTORS):
        # base i e^{i turn} and rot -i e^{-i turn}, with no negative zero
        s, c = _sin_cos(0.5 * (domain.beta - domain.alpha))
        return RiemannMapChain(domain.p, complex(0.0 - s, c),
                               math.pi / (domain.alpha + domain.beta),
                               complex(0.0 - s, 0.0 - c), *domain.rays)
    raise UnsupportedDomainOperation("no closed-form map; use quasihyp_lower")


def k_domain(domain: DomainSpec, w1, w2) -> float:
    """Hyperbolic distance of the domain via its half-plane map (an array
    when either point is a complex array); a point outside the domain, or
    one in a batch, is a DomainError."""
    if isinstance(domain, Comb):
        raise UnsupportedDomainOperation("comb distances are available as bounds only")
    fmap = to_halfplane(domain)
    ends = []
    for w in (w1, w2):
        w = w.astype(complex, copy=False) if isinstance(w, np.ndarray) else complex(w)
        _require(contains(domain, w), w, "the domain")
        ends.append(in_halfplane(fmap.forward_lp(w - fmap.p)))
    return k_half(*ends)


# ---------------------------------------------------------------------------
# Euclidean distance to the complement


def _dist_to_ray(q: np.ndarray, apex: complex, direction: complex,
                 s_lo: float = 0.0, s_hi: float = math.inf) -> np.ndarray:
    """Distance from each point of q to {apex + s*direction : s in [s_lo, s_hi]},
    |direction| = 1, on a nonempty parameter range."""
    vr, vi = q.real - apex.real, q.imag - apex.imag
    s = np.minimum(np.maximum(vr * direction.real + vi * direction.imag, s_lo), s_hi)
    return np.hypot(vr - s * direction.real, vi - s * direction.imag)


def _rays(domain: DomainSpec) -> list[tuple[complex, complex]]:
    """The boundary of a domain as closed rays (apex, unit direction): a
    sector's two from its apex p (one, when they coincide, as a Koebe
    domain's do), a strip's walls as the rays up and down from 0 and from
    r, and a comb's slits as one ray down from each tip +-a_j + i b_j."""
    if isinstance(domain, _SECTORS):
        return [(domain.p, e) for e in dict.fromkeys(domain.rays)]
    if isinstance(domain, Strip):  # each wall is a half plane's boundary
        return [(complex(x, 0.0), e) for x in (0.0, domain.r) for e in HalfPlaneRight.rays]
    if isinstance(domain, Comb):
        return [(complex(x, b), complex(0.0, -1.0)) for a, b in domain.teeth for x in (a, -a)]
    raise DomainError(f"unknown domain {domain!r}")


def _require(inside, q, where: str) -> None:
    """Fail unless every point of q, one point or an array, is inside."""
    if not np.all(inside):
        raise DomainError(f"{np.asarray(q)[np.logical_not(inside)][0]} is not in {where}")


def _require_comb_extent(domain: DomainSpec, q: np.ndarray) -> None:
    """Fail unless every point of q lies within a comb's materialised extent
    (|Re| <= a_last, Im <= b_last); the omitted teeth lie farther out and
    higher up, so past it they could be nearer than the materialised ones."""
    if isinstance(domain, Comb) and ((q.imag > domain.extent)
                                     | (np.abs(q.real) > domain.max_abscissa)).any():
        raise DomainError(
            "query outside the materialised comb extent; omitted teeth could be nearer"
        )


def delta(domain: DomainSpec, p):
    """Euclidean distance from an interior point to the complement; an array
    of points gives an array, one point a float."""
    q = np.asarray(p, dtype=complex)
    _require(contains(domain, q), q, "the domain")
    _require_comb_extent(domain, q)
    d = functools.reduce(np.minimum, [_dist_to_ray(q, apex, e) for apex, e in _rays(domain)])
    return float(d) if q.ndim == 0 else d


def _complement_halfplane_distance(domain: DomainSpec, q: np.ndarray, c: float,
                                   keep_le: bool) -> np.ndarray:
    """Distance from each point of q to the complement of the domain
    intersected with {Re <= c} (keep_le) or {Re >= c}; +inf for an empty set.

    That set is bounded by the domain's boundary rays, each from its own
    apex, clipped to the half plane, and by the intervals of heights y at
    which c + iy lies outside the domain.  The rays' crossings with the
    line {Re = c} end those intervals, and `contains` at one probe height
    inside each decides it."""
    best = np.full(q.shape, math.inf)
    crossings: list[float] = []  # where the rays meet the line {Re = c}
    for apex, d in _rays(domain):
        # the range [s_lo, s_hi] of apex + s d in the kept half plane (empty
        # when s_hi < s_lo): a vertical ray is all in or all out, and one on
        # the line ends an interval there at its apex height
        if d.real == 0.0:
            kept = apex.real <= c if keep_le else apex.real >= c
            s_lo, s_hi = (0.0, math.inf) if kept else (1.0, 0.0)
            if apex.real == c:
                crossings.append(apex.imag)
        else:
            s_cross = (c - apex.real) / d.real
            s_lo, s_hi = ((0.0, s_cross) if keep_le == (d.real > 0)
                          else (max(0.0, s_cross), math.inf))
            if s_cross >= 0.0:
                crossings.append(apex.imag + s_cross * d.imag)
        if s_hi >= s_lo:
            best = np.minimum(best, _dist_to_ray(q, apex, d, s_lo, s_hi))
    crossings.sort()
    edges = [-math.inf, *crossings, math.inf]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if math.isinf(lo) and math.isinf(hi):
            probe = 0.0
        elif math.isinf(lo):
            probe = hi - max(1.0, abs(hi))
        elif math.isinf(hi):
            probe = lo + max(1.0, abs(lo))
        else:
            probe = 0.5 * (lo + hi)
        if not contains(domain, complex(c, probe)):
            best = np.minimum(best, np.hypot(q.real - c, q.imag - np.clip(q.imag, lo, hi)))
    return best


def delta_pm(domain: DomainSpec, sign: OmegaSign, q):
    """Distance to the complement of Omega^+ = Omega u {Re > Re ref} (or
    Omega^- with Re < Re ref); +inf when the enlarged domain is the plane.
    An array of points gives an array, one point a float.  Every domain
    takes one path: its boundary rays cut at the line {Re = Re ref}, and
    the stretches of that line outside the domain.  A comb takes the extent
    guard of `delta`."""
    q = np.asarray(q, dtype=complex)
    if not contains(domain, sign.ref):
        raise DomainError("the Omega^+- reference point must lie in the domain")
    c = sign.ref.real
    plus = sign.side == "plus"
    side = (q.real > c) if plus else (q.real < c)
    _require(contains(domain, q) | (side & np.isfinite(q)), q, f"Omega^{'+' if plus else '-'}")
    _require_comb_extent(domain, q)
    # complement(Omega^+) = complement(Omega) ∩ {Re <= ref}
    d = _complement_halfplane_distance(domain, q, c, keep_le=plus)
    return float(d) if q.ndim == 0 else d


# ---------------------------------------------------------------------------
# quasi-hyperbolic lower bound along the imaginary axis

def _axis_pieces(domain: DomainSpec) -> list[tuple[float, ...]]:
    """The boundary as seen from the axis {ir}, as pieces (a, b, A, B, C, D):
    the distance from ir to a piece is hypot(a, r - b), its apex regime,
    where C + D*r > 0, and |A + B*r|, its perpendicular regime, elsewhere.

    A sector ray from p along its unit direction e, one of the sector's
    `rays`, is seen at its apex p while the projection (ir - p).e is
    negative, and along its line after; an axial e makes both regimes
    exact.  A comb's tooth (a, b) is (a, b, a, 0, -b, 1), its two mirror
    slits {+-a + iy : y <= b} being one distance from the axis; the teeth
    come by increasing a and b.  A strip's axis is its wall, which
    _axis_integrals refuses before it gets here."""
    if isinstance(domain, _SECTORS):
        p = domain.p
        return [(abs(p.real), p.imag, p.real * e.imag - p.imag * e.real, e.real,
                 p.real * e.real + p.imag * e.imag, -e.imag) for e in domain.rays]
    return [(a, b, a, 0.0, -b, 1.0) for a, b in domain.teeth]


def _axis_distance(piece, r: float) -> float:
    a, b, A, B, C, D = piece
    return math.hypot(a, r - b) if C + D * r > 0 else abs(A + B * r)


def _axis_breakpoints(pieces, t0: float, t1: float) -> list[float]:
    """Every height in [t0, t1] where the nearest ray of a sector, or its
    regime, can change along {ir}: the regime switches and the crossing of
    the two rays, all exact."""
    cands = [-C / D for _, _, _, _, C, D in pieces if D != 0.0]
    # the rays share their apex, so their distances cross only on the
    # bisector of a convex sector, both in the perpendicular regime,
    # where A1 + B1 r > 0 > A2 + B2 r: at A1 + B1 r = -(A2 + B2 r)
    (_, _, A1, B1, _, _), (_, _, A2, B2, _, _) = pieces
    if B1 + B2 != 0.0:
        cands.append(-(A1 + A2) / (B1 + B2))
    pts = {t0, t1}
    for r in cands:
        if t0 < r < t1:
            pts.add(r)
    return sorted(pts)


def _abscissa_squares(xs) -> list[float]:
    """x*x for each slit abscissa x, the form in which the axis sweep and
    the comb construction use them; past |x| ~ 1.34e154 the square
    overflows and both would go wrong, so such an abscissa is an error."""
    squares = [x * x for x in xs]
    for x, sq in zip(xs, squares):
        if math.isinf(sq):
            raise DomainError(f"slit abscissa {x!r} is too large: its square overflows a double")
    return squares


def _crossing(lower, upper) -> float:
    """Where the lines a^2 + b^2 - 2 b r of two slits, as (a*a, b, piece), meet."""
    (ai2, bi, _), (aj2, bj, _) = lower, upper
    return 0.5 * ((aj2 - ai2) / (bj - bi) + bi + bj)


def _axis_runs(domain: DomainSpec, pieces, t0: float, t1: float):
    """The envelope delta(ir) on [t0, t1] as increasing runs (lo, hi, piece)
    of one piece in one regime; a sector's runs end at its breakpoints.

    A comb's slits come by increasing |x| and top.  The nearest above r is
    the first, |x| away.  A slit below r is hypot(a, r - b) away, whose
    square less r^2 is the line a^2 + b^2 - 2 b r, with slopes falling by
    index: a monotone convex-hull sweep keeps the lower envelope of those
    lines, `front` at the one lowest at r.  Between two tops the hull only
    rises, so it hands over to the slit above once, where its distance
    reaches that |x|.  Every top ends a run; every run ends above r."""
    if isinstance(domain, _SECTORS):
        pts = _axis_breakpoints(pieces, t0, t1)
        return [(lo, hi, min(pieces, key=lambda p, mid=0.5 * (lo + hi): _axis_distance(p, mid)))
                for lo, hi in zip(pts[:-1], pts[1:])]
    # a sentinel slit above every height ends the pushes
    squares = _abscissa_squares([p[0] for p in pieces])
    lines = [(sq, p[1], p) for sq, p in zip(squares, pieces)] + [(math.inf, math.inf, None)]
    hull, front, above, r, runs = [], 0, 0, t0, []
    while r < t1:
        while lines[above][1] <= r:
            while len(hull) - front > 1 and (_crossing(hull[-2], lines[above])
                                             <= _crossing(hull[-2], hull[-1])):
                hull.pop()  # nowhere strictly the lowest line
            hull.append(lines[above])
            above += 1
        while len(hull) - front > 1 and _crossing(hull[front], hull[front + 1]) <= r:
            front += 1
        am2, hi, piece = lines[above]
        hi = min(hi, t1)
        if len(hull) - front > 1:
            hi = min(hi, _crossing(hull[front], hull[front + 1]))
        if hull:
            ai2, bi, near = hull[front]
            switch = bi + math.sqrt(am2 - ai2)
            if r < switch:
                piece, hi = near, min(hi, switch)
        runs.append((r, hi, piece))
        r = hi
    return runs


def _asinh_quotient(num: float, a: float) -> float:
    """asinh(num / a), a > 0, also where the quotient overflows: there
    asinh is log 2|num| - log a to double precision, with num's sign."""
    q = num / a
    if math.isinf(q):
        return math.copysign(LOG2 + math.log(abs(num)) - math.log(a), num)
    return math.asinh(q)


def _piece_integral(piece, lo: float, hi: float, mid: float) -> float:
    """Exact integral of dr/distance over [lo, hi], in the regime at mid."""
    a, b, A, B, C, D = piece
    if C + D * mid > 0:
        if a > 0.0:  # 1/hypot(a, r - b) integrates to asinh((r - b)/a)
            x, y = (hi - b) / a, (lo - b) / a
            if math.isinf(x) or math.isinf(y):
                return _asinh_quotient(hi - b, a) - _asinh_quotient(lo - b, a)
            if not (y > 0.0 or x < 0.0):
                return math.asinh(x) - math.asinh(y)
            # on one side of the apex the difference cancels; with s > t > 0
            # the far and near |r - b|/a it is asinh((s - t) w), where
            # w = (s + t)/(s hypot(1, t) + t hypot(1, s)), here divided
            # through by s t or by s so that nothing overflows
            s, t = (x, y) if y > 0.0 else (-y, -x)
            if t >= 1.0:
                w = (1.0 / s + 1.0 / t) / (math.hypot(1.0, 1.0 / t) + math.hypot(1.0, 1.0 / s))
            else:
                v = t / s
                w = (1.0 + v) / (math.hypot(1.0, t) + v * math.hypot(1.0, s))
            return math.asinh((hi - lo) / a * w)
        A, B = -b, 1.0  # an apex on the axis: the distance is |r - b|
    u = A + B * lo
    if B == 0.0:
        return (hi - lo) / abs(u)
    m = B if u > 0 else -B  # the slope of |A + B*r|
    return math.log1p(m * (hi - lo) / abs(u)) / m


def _axis_integrals(domain: DomainSpec, t0: float, heights) -> list[float]:
    """(1/4) * integral of dr/delta(ir) over [t0, h] for each h of the
    increasing `heights`, from one left-to-right pass over the runs of
    the envelope delta(ir) = min over the boundary pieces.

    Every height but the last must end a run (a comb's tooth tops do): the
    runs below it, and the order of their sum, are those of a pass that
    ends there.
    """
    if not t0 <= heights[0]:
        raise ValueError("need t0 <= t1")
    if not contains(domain, complex(0.0, t0)):
        raise DomainError("segment exits the domain")  # upward-closed: t0 decides
    if isinstance(domain, Comb) and heights[-1] > domain.extent:
        raise DomainError("segment exceeds the materialised comb extent")
    total, upto = 0.0, {t0: 0.0}
    for lo, hi, piece in _axis_runs(domain, _axis_pieces(domain), t0, heights[-1]):
        total += _piece_integral(piece, lo, hi, 0.5 * (lo + hi))
        upto[hi] = total
    return [0.25 * upto[h] for h in heights]


def quasihyp_lower(domain: DomainSpec, t0: float, t1: float) -> float:
    """(1/4) * integral of dr/delta(ir) for r in [t0, t1].

    The classical density bound kappa >= 1/(4 delta) makes this a lower bound
    for the hyperbolic length of the vertical segment; when that segment is a
    geodesic of the domain (combs, Koebe{0}, symmetric sectors at 0) it lower
    bounds the hyperbolic distance itself.  Along the axis delta is the lower
    envelope of constants, linear functions and hypots, one per boundary
    piece and regime, and the integral is summed exactly piece by piece, for
    any finite t1/t0.  A segment of length 0 is checked like any other.
    """
    t0, t1 = float(t0), float(t1)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"segment bounds must be finite, got [{t0!r}, {t1!r}]")
    return _axis_integrals(domain, t0, [t1])[0]
