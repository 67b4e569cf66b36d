"""Planar curvilinear polygonal domains with corners and slits.

Domains are flat (Euclidean base metric) and built from straight segments
and circular arcs.  Slit sides are represented as separate boundary pieces
(prime ends), so slits are counted twice in the perimeter.  Corner angles
are stored in units of pi throughout.
Each builder also records the facts that finite differences, the walker
and the CLI read instead of re-deriving them (see ``Domain``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, SpecError
from .fields import ScalarField, as_field
from .special import gauss_panels, gauss_rule

TWO_PI = 2.0 * math.pi


def corner_term(alpha) -> float | np.ndarray:
    """Contribution (1 - alpha^2) / (24 alpha) of a corner of angle alpha*pi."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise SpecError("corner angles must be positive")
    out = (1.0 - alpha**2) / (24.0 * alpha)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class Corner:
    location: tuple[float, float]
    alpha: float  # interior angle / pi

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise SpecError(f"corner angle alpha must be > 0, got {self.alpha}")


class Segment:
    """Straight boundary piece from p0 to p1 with a fixed outward normal."""

    curvature = 0.0

    def __init__(self, p0, p1, outward_normal=None):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        d = self.p1 - self.p0
        self.length = float(np.hypot(*d))
        if self.length == 0:
            raise SpecError("degenerate boundary segment")
        t = d / self.length
        if outward_normal is None:
            # domain on the left of the traversal direction
            outward_normal = np.array([t[1], -t[0]])
        self.normal = np.asarray(outward_normal, dtype=float)

    def sample(self, t: np.ndarray):
        t = np.asarray(t, dtype=float)
        pts = self.p0[None, :] + t[:, None] * (self.p1 - self.p0)[None, :]
        normals = np.broadcast_to(self.normal, pts.shape)
        speed = np.full(t.shape, self.length)
        curv = np.zeros_like(t)
        return pts, normals, speed, curv


class ArcPiece:
    """Circular-arc boundary piece, CCW from theta0 to theta1, domain inside."""

    def __init__(self, center, radius: float, theta0: float, theta1: float):
        if radius <= 0 or theta1 <= theta0:
            raise SpecError("invalid arc piece")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.theta0 = float(theta0)
        self.theta1 = float(theta1)
        self.length = radius * (theta1 - theta0)
        self.curvature = 1.0 / radius

    def sample(self, t: np.ndarray):
        t = np.asarray(t, dtype=float)
        th = self.theta0 + t * (self.theta1 - self.theta0)
        normals = np.stack([np.cos(th), np.sin(th)], axis=1)
        pts = self.center[None, :] + self.radius * normals
        speed = np.full(t.shape, self.length)
        curv = np.full(t.shape, self.curvature)
        return pts, normals, speed, curv


@dataclass
class Domain:
    kind: str
    params: dict
    pieces: list
    corners: list[Corner]
    area: float
    perimeter: float
    slits: list[np.ndarray] = field(default_factory=list)
    vertices: Optional[np.ndarray] = None
    # Derived, recorded once by the builder: (p0, p1) of every segment of
    # every slit in order, (p0, p1) of every straight wall with each slit
    # segment once, (center, radius) of every arc, and the sampling box
    # (lo, span) that holds the domain, None on a cone (alpha > 2).
    slit_segments: list = field(default_factory=list, init=False)
    walls: list = field(default_factory=list, init=False)
    arcs: list = field(default_factory=list, init=False)
    box: Optional[tuple] = field(default=None, init=False)

    def __post_init__(self):
        if self.area <= 0:
            raise SpecError("domain area must be positive")

    @property
    def slit_clearance(self) -> float:
        """Length of the shortest slit segment; inf without slits."""
        return min((float(np.hypot(*(p1 - p0))) for p0, p1 in self.slit_segments),
                   default=math.inf)

    # -- containment ------------------------------------------------------
    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Strict interior test (ignores slits; see walker for slit logic)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        x, y = pts[:, 0], pts[:, 1]
        if self.kind == "rectangle":
            a, b = self.params["a"], self.params["b"]
            return (x > 0) & (x < a) & (y > 0) & (y < b)
        if self.kind == "disk":
            r2 = self.params["R"] ** 2
            return x * x + y * y < r2
        if self.kind == "sector":
            alpha, radius = self.params["alpha"], self.params["R"]
            if alpha > 2:
                raise SpecError("containment test unsupported for cone sectors (alpha > 2)")
            r = np.hypot(x, y)
            th = np.mod(np.arctan2(y, x), TWO_PI)
            return (r > 0) & (r < radius) & (th > 0) & (th < alpha * math.pi)
        if self.vertices is not None:
            return _points_in_polygon(pts, self.vertices)
        raise SpecError(f"containment test unsupported for kind {self.kind!r}")

    def scaled(self, r: float) -> "Domain":
        """Dilation of the domain by a factor r > 0."""
        if r <= 0:
            raise SpecError("scale factor must be positive")
        spec = {"kind": self.kind, "params": dict(self.params)}
        if self.kind == "rectangle":
            spec["params"]["a"] *= r
            spec["params"]["b"] *= r
        elif self.kind in ("disk", "sector"):
            spec["params"]["R"] *= r
        else:
            spec["params"]["vertices"] = (np.asarray(self.params["vertices"]) * r).tolist()
            if self.slits:
                spec["params"]["slits"] = [(s * r).tolist() for s in self.slits]
        return build_domain(spec)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------

def build_domain(spec: dict) -> Domain:
    """Build a Domain from a JSON-style description.

    Schema: {"kind": ..., "params": {...}} with kinds
      rectangle{a, b} | disk{R} | sector{alpha, R} |
      polygon{vertices} | slit-polygon{vertices, slits}
    Angles alpha are in units of pi.  Slits are polylines whose first point
    lies on a straight boundary edge and whose remaining points are interior.
    A missing or mistyped parameter raises SpecError.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SpecError("domain spec must be a dict with a 'kind' key")
    kind = spec["kind"]
    try:
        params = dict(spec.get("params", {}))
        if kind == "rectangle":
            return _build_rectangle(params)
        if kind == "disk":
            return _build_disk(params)
        if kind == "sector":
            return _build_sector(params)
        if kind == "polygon":
            return _build_polygon(params, slits=None)
        if kind == "slit-polygon":
            return _build_polygon(params, slits=params.get("slits", spec.get("slits")))
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed {kind!r} parameters: {exc!r}") from exc
    raise SpecError(f"unknown domain kind {kind!r}")


def _read_domain_doc(source) -> dict:
    """Parse a domain JSON document from a file path or file object."""
    try:
        if hasattr(source, "read"):
            doc = json.load(source)
        else:
            with open(source) as fh:
                doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SpecError(f"domain document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("domain document must be a JSON object")
    return doc


def load_domain(source) -> tuple[Domain, "ScalarField"]:
    """Load (domain, sigma) from a JSON file path, file object, or dict."""
    doc = source if isinstance(source, dict) else _read_domain_doc(source)
    return build_domain(doc), as_field(doc.get("sigma"))


def _record(domain: Domain, walls, box, arcs=(), slit_segments=()) -> Domain:
    domain.walls, domain.arcs, domain.box = list(walls), list(arcs), box
    domain.slit_segments = list(slit_segments)
    return domain


def _finite(*values) -> None:
    if not all(np.all(np.isfinite(v)) for v in values):
        raise SpecError("domain parameters must be finite")


def _build_rectangle(params) -> Domain:
    a, b = float(params["a"]), float(params["b"])
    _finite(a, b)
    if a <= 0 or b <= 0:
        raise SpecError("rectangle sides must be positive")
    verts = np.array([[0.0, 0.0], [a, 0.0], [a, b], [0.0, b]])
    pieces = [Segment(verts[i], verts[(i + 1) % 4]) for i in range(4)]
    corners = [Corner(tuple(verts[i]), 0.5) for i in range(4)]
    dom = Domain("rectangle", {"a": a, "b": b}, pieces, corners,
                 area=a * b, perimeter=2 * (a + b), vertices=verts)
    return _record(dom, [(p.p0, p.p1) for p in pieces], (verts[0], verts[2]))


def _build_disk(params) -> Domain:
    radius = float(params["R"])
    _finite(radius)
    if radius <= 0:
        raise SpecError("disk radius must be positive")
    pieces = [ArcPiece((0.0, 0.0), radius, 0.0, TWO_PI)]
    dom = Domain("disk", {"R": radius}, pieces, [],
                 area=math.pi * radius**2, perimeter=TWO_PI * radius)
    return _record(dom, [], (np.full(2, -radius), np.full(2, 2 * radius)),
                   [(pieces[0].center, radius)])


def _build_sector(params) -> Domain:
    alpha, radius = float(params["alpha"]), float(params["R"])
    _finite(alpha, radius)
    if alpha <= 0 or radius <= 0:
        raise SpecError("sector needs alpha > 0 and R > 0")
    end = np.array([radius * math.cos(alpha * math.pi),
                    radius * math.sin(alpha * math.pi)])
    pieces = [
        Segment([0.0, 0.0], [radius, 0.0], outward_normal=[0.0, -1.0]),
        ArcPiece((0.0, 0.0), radius, 0.0, alpha * math.pi),
        Segment(end, [0.0, 0.0],
                outward_normal=[-math.sin(alpha * math.pi), math.cos(alpha * math.pi)]),
    ]
    corners = [
        Corner((0.0, 0.0), alpha),
        Corner((radius, 0.0), 0.5),
        Corner(tuple(end), 0.5),
    ]
    dom = Domain("sector", {"alpha": alpha, "R": radius}, pieces, corners,
                 area=alpha * math.pi * radius**2 / 2,
                 perimeter=2 * radius + alpha * math.pi * radius)
    # at alpha = 2 the closing side retraces the first one: one wall
    walls = [(p.p0, p.p1) for p in (pieces[0::2] if alpha != 2 else pieces[:1])]
    box = (np.full(2, -radius), np.full(2, 2 * radius)) if alpha <= 2 else None
    return _record(dom, walls, box, [(pieces[1].center, radius)])


def _build_polygon(params, slits) -> Domain:
    verts = np.asarray(params["vertices"], dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
        raise SpecError("polygon needs at least 3 vertices of shape (n, 2)")
    _finite(verts)
    area2 = _signed_area2(verts)
    if area2 < 0:  # normalize to CCW
        verts = verts[::-1].copy()
        area2 = -area2
    if area2 == 0:
        raise SpecError("degenerate polygon")
    n = len(verts)
    _check_simple(verts)
    pieces = [Segment(verts[i], verts[(i + 1) % n]) for i in range(n)]
    corners = []
    for i in range(n):
        alpha = _interior_angle(verts[(i - 1) % n], verts[i], verts[(i + 1) % n])
        corners.append(Corner(tuple(verts[i]), alpha))
    perimeter = sum(p.length for p in pieces)
    slit_arrays, slit_segments = [], []
    for poly in slits or ():
        sl = np.asarray(poly, dtype=float)
        if sl.ndim != 2 or sl.shape[0] < 2:
            raise SpecError("each slit must be a polyline of >= 2 points")
        _finite(sl)
        segs = list(zip(sl[:-1], sl[1:]))
        extra_pieces, extra_corners, extra_len = _attach_slit(verts, sl, segs)
        _check_slit_apart(segs, slit_segments)
        pieces.extend(extra_pieces)
        corners.extend(extra_corners)
        perimeter += extra_len
        slit_arrays.append(sl)
        slit_segments.extend(segs)
    kind = "slit-polygon" if slit_arrays else "polygon"
    dom = Domain(kind, {"vertices": verts.tolist()}, pieces, corners,
                 area=area2 / 2, perimeter=perimeter,
                 slits=slit_arrays, vertices=verts)
    return _record(dom, [(p.p0, p.p1) for p in pieces[:n]] + slit_segments,
                   (verts.min(axis=0), np.ptp(verts, axis=0)), (), slit_segments)


def _attach_slit(verts, sl, segs):
    """Slit bookkeeping: mouth, bend and tip corners, and doubled side pieces.

    segs are the slit's segments (p0, p1) in order.
    """
    n = len(verts)
    mouth = sl[0]
    edge_dir = None
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        if _on_open_segment(mouth, a, b):
            edge_dir = (b - a) / np.hypot(*(b - a))
            break
    if edge_dir is None:
        raise SpecError("slit mouth must lie in the interior of a straight boundary edge")
    # interior points must be strictly inside and slit must not cross the boundary
    for p in sl[1:]:
        if not _points_in_polygon(p[None, :], verts)[0]:
            raise SpecError("slit interior points must lie strictly inside the polygon")
    for j, (p0, p1) in enumerate(segs):
        for i in range(n):
            a, b = verts[i], verts[(i + 1) % n]
            if _segments_cross(p0, p1, a, b, skip_first_endpoint=(j == 0)):
                raise SpecError("slit crosses the boundary; undeclared self-intersection")

    s_dir = (sl[1] - sl[0]) / np.hypot(*(sl[1] - sl[0]))
    th1 = math.acos(float(np.clip(np.dot(s_dir, -edge_dir), -1, 1)))
    th2 = math.acos(float(np.clip(np.dot(s_dir, edge_dir), -1, 1)))
    if th1 < 1e-12 or th2 < 1e-12:
        raise SpecError("slit meets the boundary tangentially")
    corners = [Corner(tuple(mouth), th1 / math.pi), Corner(tuple(mouth), th2 / math.pi)]
    for (p0, p1), (_, p2) in zip(segs[:-1], segs[1:]):
        corners.extend(_bend_corners(p0, p1, p2))
    corners.append(Corner(tuple(sl[-1]), 2.0))  # slit tip
    pieces = []
    length = 0.0
    for p0, p1 in segs:
        d = p1 - p0
        d = d / np.hypot(*d)
        left = np.array([-d[1], d[0]])
        pieces.append(Segment(p0, p1, outward_normal=left))
        pieces.append(Segment(p0, p1, outward_normal=-left))
        length += 2 * float(np.hypot(*(p1 - p0)))
    return pieces, corners, length


def _check_slit_apart(segs, earlier) -> None:
    """Raise unless the slit's segments meet no earlier slit segment, and
    each other only where consecutive segments share a bend."""
    for j, (p0, p1) in enumerate(segs):
        for q0, q1 in earlier + segs[:max(j - 1, 0)]:
            if _segments_meet(p0, p1, q0, q1):
                raise SpecError("slit meets itself or another slit away from "
                                f"its bends, on [{p0.tolist()}, {p1.tolist()}]")


def _bend_corners(p0, p1, p2) -> list[Corner]:
    """The corners a slit bending at p1 makes: angle theta*pi on one side and
    (2 - theta)*pi on the other, none where the slit runs straight on."""
    d1, d2 = p1 - p0, p2 - p1
    turn = abs(math.atan2(d1[0] * d2[1] - d1[1] * d2[0], float(np.dot(d1, d2))))
    if turn < 1e-12:
        return []
    if math.pi - turn < 1e-12:
        raise SpecError(f"slit folds back on itself at {p1.tolist()}")
    theta = 1.0 - turn / math.pi
    return [Corner(tuple(p1), theta), Corner(tuple(p1), 2.0 - theta)]


# ---------------------------------------------------------------------------
# Small planar predicates
# ---------------------------------------------------------------------------

def _signed_area2(verts: np.ndarray) -> float:
    x, y = verts[:, 0], verts[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _interior_angle(prev_pt, v, next_pt) -> float:
    d1 = v - prev_pt
    d2 = next_pt - v
    turn = math.atan2(d1[0] * d2[1] - d1[1] * d2[0], float(np.dot(d1, d2)))
    angle = math.pi - turn
    if angle <= 0 or angle >= TWO_PI:
        raise SpecError("invalid polygon interior angle")
    return angle / math.pi


def _on_open_segment(p, a, b, tol=1e-12) -> bool:
    ab = b - a
    ap = p - a
    L2 = float(np.dot(ab, ab))
    cross = ab[0] * ap[1] - ab[1] * ap[0]
    if abs(cross) > tol * math.sqrt(L2):
        return False
    s = float(np.dot(ap, ab)) / L2
    return tol < s < 1 - tol


def _orient(a, b, c) -> float:
    """Twice the signed area of the triangle (a, b, c)."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_cross(p0, p1, q0, q1, skip_first_endpoint=False) -> bool:
    """Proper crossing test; optionally tolerates p0 lying on [q0, q1]."""
    if skip_first_endpoint and (_on_open_segment(p0, q0, q1) or
                                np.allclose(p0, q0) or np.allclose(p0, q1)):
        return False
    d1 = _orient(q0, q1, p0)
    d2 = _orient(q0, q1, p1)
    d3 = _orient(p0, p1, q0)
    d4 = _orient(p0, p1, q1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def _segments_meet(p0, p1, q0, q1) -> bool:
    """Whether the closed segments [p0, p1] and [q0, q1] share a point."""
    if _segments_cross(p0, p1, q0, q1):
        return True

    def on(a, b, c):  # c on the closed segment [a, b]
        return _orient(a, b, c) == 0 and np.all(np.minimum(a, b) <= c) \
            and np.all(c <= np.maximum(a, b))

    return on(q0, q1, p0) or on(q0, q1, p1) or on(p0, p1, q0) or on(p0, p1, q1)


def _check_simple(verts: np.ndarray):
    n = len(verts)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_cross(verts[i], verts[(i + 1) % n],
                               verts[j], verts[(j + 1) % n]):
                raise SpecError(
                    "polygon boundary self-intersects; declare slits explicitly")


def _points_in_polygon(pts: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Vectorized ray casting (strict interior up to grazing cases)."""
    x, y = pts[:, 0], pts[:, 1]
    inside = np.zeros(len(pts), dtype=bool)
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        cond = (y0 > y) != (y1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            x_int = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
        inside ^= cond & (x < x_int)
    return inside


# ---------------------------------------------------------------------------
# Quadrature over domains
# ---------------------------------------------------------------------------

_QUAD_TOL = 1e-10


def boundary_integral(domain: Domain, fn: Callable, tol: float = _QUAD_TOL) -> float:
    """Integrate fn(x, y, nx, ny, curvature) over the boundary (prime ends).

    fn must accept numpy arrays.  Composite Gauss-Legendre per piece with
    panel doubling (``gauss_panels``); deterministic reduction order over
    pieces.
    """
    total = 0.0
    for piece in domain.pieces:
        def f(t):
            pts, normals, speed, curv = piece.sample(t)
            vals = fn(pts[:, 0], pts[:, 1], normals[:, 0], normals[:, 1], curv)
            return np.asarray(vals) * speed

        total += gauss_panels(f, 0.0, 1.0, tol=tol / 2, max_panels=1024)[0]
    return total


def interior_integral(domain: Domain, fn: Callable, tol: float = _QUAD_TOL) -> float:
    """Integrate fn(x, y) over the interior with the flat area element.

    Slits have measure zero and are ignored.  Sectors integrate in polar
    coordinates; for cone sectors (alpha > 2) the field is evaluated on the
    projected plane coordinates sheet by sheet.
    """
    if domain.kind == "rectangle":
        a, b = domain.params["a"], domain.params["b"]
        return _tensor_integral(fn, 0, a, 0, b, tol)
    if domain.kind == "disk":
        radius = domain.params["R"]
        return _polar_integral(fn, radius, 0.0, TWO_PI, tol)
    if domain.kind == "sector":
        radius = domain.params["R"]
        alpha = domain.params["alpha"]
        return _polar_integral(fn, radius, 0.0, alpha * math.pi, tol)
    if domain.vertices is not None:
        return _polygon_integral(fn, domain.vertices, tol)
    raise SpecError(f"interior integral unsupported for kind {domain.kind!r}")


def _tensor_integral(fn, ax, bx, ay, by, tol) -> float:
    x0, w0 = gauss_rule(20)
    prev = None
    n = 2
    while n <= 128:
        ex = np.linspace(ax, bx, n + 1)
        ey = np.linspace(ay, by, n + 1)
        xm, xh = 0.5 * (ex[:-1] + ex[1:]), 0.5 * (ex[1:] - ex[:-1])
        ym, yh = 0.5 * (ey[:-1] + ey[1:]), 0.5 * (ey[1:] - ey[:-1])
        xs = (xm[:, None] + xh[:, None] * x0[None, :]).ravel()
        ws_x = (xh[:, None] * w0[None, :]).ravel()
        ys = (ym[:, None] + yh[:, None] * x0[None, :]).ravel()
        ws_y = (yh[:, None] * w0[None, :]).ravel()
        X, Y = np.meshgrid(xs, ys, indexing="ij")
        vals = np.asarray(fn(X, Y), dtype=float)
        value = float(ws_x @ vals @ ws_y)
        if prev is not None and abs(value - prev) < tol * max(1.0, abs(value)):
            return value
        prev = value
        n *= 2
    raise NumericalError("interior_integral",
                         f"tensor Gauss rule did not converge below {tol:.3g} "
                         "with 128 x 128 panels", best_estimate=prev)


def _polar_integral(fn, radius, th0, th1, tol) -> float:
    def g(r, th):
        return np.asarray(fn(r * np.cos(th), r * np.sin(th)), dtype=float) * r

    return _tensor_integral(g, 0.0, radius, th0, th1, tol)


def _polygon_integral(fn, verts, tol) -> float:
    tris = _ear_clip(verts)
    x0, w0 = gauss_rule(12)
    prev = None
    level = 0
    while level <= 5:
        value = 0.0
        for tri in tris:
            for sub in _subdivide(tri, level):
                value += _triangle_gauss(fn, sub, x0, w0)
        if prev is not None and abs(value - prev) < tol * max(1.0, abs(value)):
            return value
        prev = value
        level += 1
    raise NumericalError("interior_integral",
                         f"triangle Gauss rule did not converge below {tol:.3g} "
                         "after 5 subdivisions", best_estimate=prev)


def _ear_clip(verts: np.ndarray) -> list[np.ndarray]:
    idx = list(range(len(verts)))
    tris = []
    guard = 0
    while len(idx) > 3 and guard < 10000:
        guard += 1
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = verts[i0], verts[i1], verts[i2]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0:
                continue
            ear = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                if _point_in_triangle(verts[j], a, b, c):
                    ear = False
                    break
            if ear:
                tris.append(np.array([a, b, c]))
                idx.pop(k)
                break
        else:
            raise SpecError("polygon triangulation failed; is the polygon simple?")
    tris.append(verts[idx])
    return tris


def _point_in_triangle(p, a, b, c) -> bool:
    def s(u, v, w):
        return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])

    d1, d2, d3 = s(a, b, p), s(b, c, p), s(c, a, p)
    return (d1 >= 0) and (d2 >= 0) and (d3 >= 0)


def _subdivide(tri: np.ndarray, level: int):
    tris = [tri]
    for _ in range(level):
        out = []
        for t in tris:
            a, b, c = t
            ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
            out += [np.array([a, ab, ca]), np.array([ab, b, bc]),
                    np.array([ca, bc, c]), np.array([ab, bc, ca])]
        tris = out
    return tris


def _triangle_gauss(fn, tri, x0, w0) -> float:
    # Duffy map of the tensor Gauss rule onto the triangle
    a, b, c = tri
    u = 0.5 * (x0 + 1.0)
    wu = 0.5 * w0
    U, V = np.meshgrid(u, u, indexing="ij")
    X = a[0] * (1 - U) + b[0] * U * (1 - V) + c[0] * U * V
    Y = a[1] * (1 - U) + b[1] * U * (1 - V) + c[1] * U * V
    area2 = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    vals = np.asarray(fn(X, Y), dtype=float) * area2 * U
    return float(wu @ vals @ wu)


# ---------------------------------------------------------------------------
# Conformal metric data and expansion coefficients
# ---------------------------------------------------------------------------

@dataclass
class MetricSpec:
    """Conformal family g_u = e^{2 u sigma} g_0 over a flat base metric."""

    sigma: ScalarField
    u: float = 0.0

    @classmethod
    def flat(cls) -> "MetricSpec":
        return cls(ScalarField.constant(0.0), 0.0)

    def is_flat(self) -> bool:
        """True when g_u is the flat base metric (sigma = 0 or u = 0)."""
        return self.sigma.is_zero() or self.u == 0.0

    def weight(self, x, y):
        """Conformal weight e^{2 u sigma}: the package's one statement of it.

        The finite-difference mass matrix and the volume integrand of
        geometric_coefficients both evaluate it here.  A flat metric gives
        ones without evaluating sigma.
        """
        if self.is_flat():
            return np.ones(np.broadcast_shapes(np.shape(x), np.shape(y)))
        return np.exp(2.0 * self.u * self.sigma(x, y))


# The breakdown keys whose sum is a_0, in summation order.
A0_TERMS = ("interior_curvature", "boundary_curvature", "normal_derivative",
            "corner_sum")


@dataclass
class ExpansionCoefficients:
    """Coefficients (a_{-1}, a_{-1/2}, a_0) of the short-time heat trace."""

    a_m1: float
    a_mhalf: float
    a_0: float
    breakdown: dict


def _a0_terms(domain: Domain, metric: MetricSpec,
              psi: ScalarField) -> tuple[float, dict]:
    """a_0 of the trace of psi e^{-t Delta_u}, with its A0_TERMS and corners.

    The one evaluation of the a_0 integrals: geometric_coefficients adds
    a_{-1} and a_{-1/2} to it, and the anomaly identity needs it alone.
    """
    sigma, u = metric.sigma, metric.u
    flat = metric.is_flat()
    curv_int = 0.0 if flat else interior_integral(
        domain, lambda x, y: psi(x, y) * u * sigma.pos_laplacian(x, y))

    def bdy_curv(x, y, nx, ny, k):
        ku = k + (0.0 if flat else u * sigma.normal_derivative(x, y, nx, ny))
        return psi(x, y) * ku

    bcurv_int = boundary_integral(domain, bdy_curv)
    ndpsi_int = boundary_integral(
        domain, lambda x, y, nx, ny, k: psi.normal_derivative(x, y, nx, ny))

    corner_sum = 0.0
    corner_terms = {}
    for j, c in enumerate(domain.corners):
        val = float(psi(*c.location)) * corner_term(c.alpha)
        corner_terms[j] = val
        corner_sum += val

    interior_curv_term = curv_int / (12 * math.pi)
    boundary_curv_term = bcurv_int / (12 * math.pi)
    normal_deriv_term = ndpsi_int / (8 * math.pi)
    a0 = interior_curv_term + boundary_curv_term + normal_deriv_term + corner_sum
    return a0, {
        "interior_curvature": interior_curv_term,
        "boundary_curvature": boundary_curv_term,
        "normal_derivative": normal_deriv_term,
        "corners": corner_terms,
        "corner_sum": corner_sum,
    }


def geometric_coefficients(domain: Domain, metric: Optional[MetricSpec] = None,
                           psi=None) -> ExpansionCoefficients:
    """Evaluate all geometric integrals of the short-time trace expansion.

    a_{-1}   = (1/4pi) int psi dVol_u
    a_{-1/2} = -(1/(8 sqrt(pi))) int_bdy psi dl_u
    a_0      = (1/12pi) int psi K_u dVol_u + (1/12pi) int_bdy psi k_u dl_u
               + (1/8pi) int_bdy d_n psi dl_u + (1/24) sum psi(p_j)(1-a_j^2)/a_j

    This is the package's one statement of the conformal rules over the flat
    base: dVol_u = e^{2 u sigma} dVol_0 (MetricSpec.weight),
    K_u dVol_u = u (Delta_0 sigma) dVol_0 with the positive Laplacian,
    k_u dl_u = (k_0 + u d_n sigma) dl_0, and d_{n_u} psi dl_u = d_n psi dl_0.
    Every psi, psi = 1 (the default) included, takes the same quadratures at
    the geometry module's tolerance of 1e-10; the flat interior curvature
    integral alone is skipped.  The anomaly module builds both of its forms
    on the a_0 integrals (_a0_terms).
    """
    if metric is None:
        metric = MetricSpec.flat()
    psi = as_field(psi) if psi is not None else ScalarField.constant(1.0)
    u = metric.u
    vol = interior_integral(domain, lambda x, y: psi(x, y) * metric.weight(x, y))
    per = boundary_integral(
        domain, lambda x, y, nx, ny, k: psi(x, y) * np.exp(u * metric.sigma(x, y)))
    a0, terms = _a0_terms(domain, metric, psi)
    area_term = vol / (4 * math.pi)
    perim_term = -per / (8 * math.sqrt(math.pi))
    return ExpansionCoefficients(
        a_m1=area_term,
        a_mhalf=perim_term,
        a_0=a0,
        breakdown={"area": area_term, "perimeter": perim_term, **terms},
    )
