"""Limit sets of marked Moebius groups: fixed-point clouds, depth-first
circle enumeration with diameter pruning, convergence diagnostics, and
rasterization.

All dedup and pruning distances are chordal (measured through the unit
sphere), since the limit sets of interest contain the point at infinity.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .gasket import OrientedCircle, _TripleSet
from .groups import MarkedGroup
from .mobius import (
    INFINITY,
    MapClass,
    MoebiusMap,
    SpherePoint,
    chordal_distance,
    sphere_coords,
)

__all__ = [
    "EllipticOnlyError",
    "EmptyWindowError",
    "Rectangle",
    "CloudPoint",
    "LimitSetCloud",
    "DfsConfig",
    "DfsStats",
    "EmittedCircle",
    "DfsResult",
    "limit_points_by_fixed_points",
    "limit_set_dfs",
    "hausdorff_distance",
    "RenderResult",
    "render",
]


# Chordal distance below which two cloud points of `points` or `dfs` count
# as one.
_CLOUD_TOLERANCE = 1e-9


class EllipticOnlyError(ValueError):
    """No word up to the bound was parabolic or loxodromic."""


class EmptyWindowError(ValueError):
    """A cloud has no finite points inside the requested window."""


@dataclass(frozen=True)
class Rectangle:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate window {self}")

    @classmethod
    def parse(cls, text: str) -> "Rectangle":
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 4:
            raise ValueError(f"window must be 'x0,y0,x1,y1', got {text!r}")
        return cls(*(float(p) for p in parts))

    def contains(self, z: complex) -> bool:
        return self.x0 <= z.real <= self.x1 and self.y0 <= z.imag <= self.y1

    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.x0, self.y0),
            complex(self.x1, self.y0),
            complex(self.x1, self.y1),
            complex(self.x0, self.y1),
        )


class CloudPoint(NamedTuple):
    point: SpherePoint
    word_length: int
    word: str


class LimitSetCloud:
    """Deduplicated limit-set sample points in deterministic discovery order.

    A point is kept when its lift to the sphere lies at squared distance
    tol^2 or more from the lift of every point kept before it (the lift
    turns chordal distance into Euclidean distance).
    """

    def __init__(self, dedup_tolerance: float):
        if not dedup_tolerance > 0.0:
            raise ValueError("dedup tolerance must be positive")
        self.dedup_tolerance = dedup_tolerance
        self.points: list[CloudPoint] = []

    def try_add(self, point: SpherePoint, word: str) -> bool:
        """extend by one point; True when it is kept.  Each call costs
        O(len(self)), so pass a batch to extend instead."""
        before = len(self.points)
        self.extend([point], [word])
        return len(self.points) > before

    def extend(self, points: list[SpherePoint], words: list[str]) -> None:
        """Offer every (point, word) in order; keep the points the greedy
        rule above keeps.

        The lifts are hashed into the 8 grids of _grid_keys.  Two lifts
        within tol share a cell in at least one of the grids, so a point
        alone in its cell of every grid, among the points already kept and
        the new ones, is farther than tol from all of them: the greedy keeps
        it whatever comes first, and it rejects nothing.  Every kept point
        within tol of a crowded point is crowded too, so the crowded points
        alone run the exact greedy, looking each other up through their own
        8 cells.  A hash collision only adds work.
        """
        tol = self.dedup_tolerance
        n = len(self.points)
        candidates = [cp.point for cp in self.points] + list(points)
        crowded = _crowded(candidates, tol).nonzero()[0].tolist()
        rows = _grid_keys([candidates[i] for i in crowded], tol)
        cells: dict[int, list[tuple[float, float, float]]] = {}
        keep = [True] * len(points)
        t2 = tol * tol
        for i, keys in zip(crowded, zip(*(row.tolist() for row in rows))):
            x, y, z = lift = sphere_coords(candidates[i])
            if i >= n and any(
                (px - x) ** 2 + (py - y) ** 2 + (pz - z) ** 2 < t2
                for key in keys
                for (px, py, pz) in cells.get(key, ())
            ):
                keep[i - n] = False
                continue
            for key in keys:
                cells.setdefault(key, []).append(lift)
        self.points.extend(
            CloudPoint(p, len(word), word) for p, word, k in zip(points, words, keep) if k
        )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[CloudPoint]:
        return iter(self.points)

    def finite_points(self) -> list[complex]:
        return [complex(p.point) for p in self.points if p.point is not INFINITY]


def _grid_keys(points: list[SpherePoint], tol: float):
    """Yield, for each of 8 grids over the lifts to the sphere, the int64
    cell key of every point.  The cells have side 4 max(tol, 1e-12), so the
    lifts' rounding stays small against them, and each grid is shifted by 0
    or half a cell along each axis."""
    import numpy as np

    z = np.array([0j if p is INFINITY else p for p in points], dtype=complex)
    r2 = z.real * z.real + z.imag * z.imag
    lift = np.stack([2.0 * z.real, 2.0 * z.imag, r2 - 1.0]) / (1.0 + r2)
    lift[:, [p is INFINITY for p in points]] = [[0.0], [0.0], [1.0]]
    scaled = lift / (4.0 * max(tol, 1e-12))
    for shift in itertools.product((0.0, 0.5), repeat=3):
        x, y, w = np.floor(scaled + np.array(shift)[:, None]).astype(np.int64)
        # One int64 key per cell; it wraps, and a collision only adds work.
        yield (x * 1_000_000_007 + y) * 998_244_353 + w


def _crowded(points: list[SpherePoint], tol: float):
    """Boolean array: which points share a cell with another point in one
    of the grids of _grid_keys."""
    import numpy as np

    crowded = np.zeros(len(points), dtype=bool)
    for key in _grid_keys(points, tol):
        order = np.argsort(key)
        shared = np.flatnonzero(key[order[1:]] == key[order[:-1]])
        crowded[order[shared]] = True
        crowded[order[shared + 1]] = True
    return crowded


def limit_points_by_fixed_points(group: MarkedGroup, max_word_len: int) -> LimitSetCloud:
    """Attracting (or parabolic) fixed points of every nontrivial reduced
    word up to max_word_len, visited in length-lexicographic order.

    Level n extends each level-(n-1) word and map, in order, by every
    letter that does not cancel its last one, so each word is composed
    once and the depth-d cloud is an exact prefix of the depth-(d+1) cloud.
    Raises EllipticOnlyError when no word contributes.
    """
    if max_word_len < 1:
        raise ValueError("max_word_len must be >= 1")
    cloud = LimitSetCloud(_CLOUD_TOLERANCE)
    letters = group.alphabet.letters
    maps = [group.letter_map(x) for x in letters]
    points: list[SpherePoint] = []
    words: list[str] = []

    level = [("", MoebiusMap.identity())]
    for _ in range(max_word_len):
        level = [
            (word + x, m.compose(mx))
            for word, m in level
            for x, mx in zip(letters, maps)
            if not word or x != word[-1].swapcase()
        ]
        for word, m in level:
            kind = m.classify()
            if kind is not MapClass.IDENTITY and kind is not MapClass.ELLIPTIC:
                points.append(m.attracting_fixed_point())
                words.append(word)
    cloud.extend(points, words)
    if not cloud.points:
        raise EllipticOnlyError(
            f"no parabolic or loxodromic word up to length {max_word_len}"
        )
    return cloud


@dataclass(frozen=True)
class DfsConfig:
    epsilon: float
    max_depth: int
    seeds: tuple[OrientedCircle, ...]
    window: Rectangle | None = None

    def __post_init__(self):
        if not self.epsilon > 0.0:
            raise ValueError("epsilon must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if not self.seeds:
            raise ValueError("at least one seed circline is required")


@dataclass
class DfsStats:
    words_visited: int = 0
    branches_pruned: int = 0
    circles_emitted: int = 0
    depth_exhausted_branches: int = 0
    max_depth_reached: int = 0
    wall_time: float = 0.0


class EmittedCircle(NamedTuple):
    circle: OrientedCircle
    word: str
    depth_exhausted: bool


class DfsResult(NamedTuple):
    cloud: LimitSetCloud
    circles: list[EmittedCircle]
    stats: DfsStats


def _circle_meets_window(c: OrientedCircle, w: Rectangle) -> bool:
    """Whether the circle's locus (the curve, not the disk) meets the
    closed rectangle."""
    if c.is_line:
        n, d = c.line_geometry()
        vals = [(n.conjugate() * corner).real for corner in w.corners()]
        return min(vals) <= d <= max(vals)
    m = -c.B / c.A
    r = 1.0 / abs(c.A)
    # Distance from center to the rectangle ranges over [dmin, dmax]; the
    # curve meets the rectangle iff r lies in that interval.
    cx = min(max(m.real, w.x0), w.x1)
    cy = min(max(m.imag, w.y0), w.y1)
    dmin = math.hypot(m.real - cx, m.imag - cy)
    dmax = max(abs(corner - m) for corner in w.corners())
    return dmin <= r <= dmax


def _circle(A: float, Bre: float, Bim: float, C: float) -> OrientedCircle:
    """The circle of a triple already at unit discriminant, taken as is."""
    return OrientedCircle._from_unit_triple(A, complex(Bre, Bim), C)


def _meets_window(rows, w: Rectangle):
    """_circle_meets_window of each row (A, Re B, Im B, C) of an (n, 4)
    array, as a boolean array.

    numpy's hypot may differ from math.hypot in the last place.  So lines,
    and rows whose radius lies within a relative 1e-12 of dmin or dmax,
    take the scalar test; every other row clears both bounds by far more
    than that rounding.
    """
    import numpy as np

    A, Bre, Bim = rows[:, 0], rows[:, 1], rows[:, 2]
    with np.errstate(all="ignore"):  # lines divide by A = 0; they are redone
        mx, my = -Bre / A, -Bim / A
        r = 1.0 / np.abs(A)
        dmin = np.hypot(mx - np.clip(mx, w.x0, w.x1), my - np.clip(my, w.y0, w.y1))
        dmax = np.maximum.reduce(
            [np.hypot(z.real - mx, z.imag - my) for z in w.corners()]
        )
        meets = (dmin <= r) & (r <= dmax)
        unsure = (
            (np.abs(A) < 1e-9)
            | (np.abs(r - dmin) <= 1e-12 * r)
            | (np.abs(r - dmax) <= 1e-12 * r)
        )
    for k in np.flatnonzero(unsure).tolist():
        meets[k] = _circle_meets_window(_circle(*rows[k].tolist()), w)
    return meets


def limit_set_dfs(group: MarkedGroup, config: DfsConfig) -> DfsResult:
    """Depth-first enumeration of the seed-circline orbit over reduced words.

    Each branch carries one circline image w(S) of a seed S; its children
    prepend a letter, so the recorded word re-applied to the seed reproduces
    the circline.  A branch prunes when its circline has chordal diameter
    below epsilon (emitted), when it reproduces a circline already visited
    (a seed stabilizer is a whole free subgroup, so without this the
    traversal revisits the invariant circline exponentially often), or at
    max_depth (emitted with the depth_exhausted flag).  Every distinct
    circline encountered is emitted once, so oversized members of the orbit
    appear in the output alongside the sub-epsilon horizon.  Emitted circle
    centers form the returned cloud.

    The traversal only records each new normalized triple.  The window test
    and the cloud dedup then run in bulk over all of them, in preorder.
    """
    t0 = time.perf_counter()
    stats = DfsStats()
    cloud = LimitSetCloud(_CLOUD_TOLERANCE)
    seen = _TripleSet()
    # Each new normalized triple, four coefficients to a row, with its word
    # and whether it was flagged depth-exhausted.
    coeffs: list[float] = []
    words: list[str] = []
    flags: list[bool] = []
    window = config.window
    eps2 = config.epsilon * config.epsilon
    max_depth = config.max_depth

    letters = group.alphabet.letters
    nletters = len(letters)
    inverse_rank = [group.alphabet.letter_rank(x.swapcase()) for x in letters]

    # Per-letter transport coefficients; constant for the whole run, so a
    # child costs about a dozen real multiplications.
    gen_coeffs = []
    for x in letters:
        m = group.letter_map(x)
        a, b, c, d = m.a, m.b, m.c, m.d
        gen_coeffs.append(
            (
                (d * d.conjugate()).real,
                (c * c.conjugate()).real,
                (b * b.conjugate()).real,
                (a * a.conjugate()).real,
                c * d.conjugate(),
                a * d.conjugate(),
                b * c.conjugate(),
                a * c.conjugate(),
                a * b.conjugate(),
                b * d.conjugate(),
            )
        )

    # Explicit stack, preorder; children pushed in reverse rank order so the
    # traversal matches the natural recursive order letter by letter.
    stack: list[tuple[float, float, float, float, str, int, int]] = []
    for seed in reversed(config.seeds):
        stack.append((seed.A, seed.B.real, seed.B.imag, seed.C, "", -1, 0))
    while stack:
        A, Bre, Bim, C, word, last_rank, depth = stack.pop()
        stats.words_visited += 1
        if depth > stats.max_depth_reached:
            stats.max_depth_reached = depth
        bb = Bre * Bre + Bim * Bim
        disc = bb - A * C
        if not disc > 0.0:
            stats.branches_pruned += 1
            continue
        t = 1.0 / math.sqrt(disc)
        nA, nBre, nBim, nC = A * t, Bre * t, Bim * t, C * t
        # The emitted circle keeps the sign it arrived with, preserving the
        # seeds' disk orientations in the output; the dedup ignores it.
        if not seen.try_add(nA, nBre, nBim, nC):
            stats.branches_pruned += 1
            continue
        ac = A - C
        small = 16.0 * disc < eps2 * (4.0 * bb + ac * ac)
        coeffs += (nA, nBre, nBim, nC)
        words.append(word)
        flags.append(not small and depth >= max_depth)
        if small:
            stats.branches_pruned += 1
            continue
        if depth >= max_depth:
            stats.depth_exhausted_branches += 1
            continue
        skip = inverse_rank[last_rank] if last_rank >= 0 else -1
        Br = complex(Bre, Bim)
        Brc = Br.conjugate()
        for rank in range(nletters - 1, -1, -1):
            if rank == skip:
                continue
            dd, cc, bbc, aa, cd, ad, bcc, acc, ab, bd = gen_coeffs[rank]
            A2 = A * dd + C * cc - 2.0 * (Br * cd).real
            B2 = -A * bd + Br * ad + Brc * bcc - C * acc
            C2 = A * bbc + C * aa - 2.0 * (Br * ab).real
            stack.append((A2, B2.real, B2.imag, C2, letters[rank] + word, rank, depth + 1))

    if window is None:
        hits = range(len(words))
    else:
        import numpy as np

        hits = np.flatnonzero(_meets_window(np.array(coeffs).reshape(-1, 4), window)).tolist()
    emitted = [
        EmittedCircle(_circle(*coeffs[4 * k : 4 * k + 4]), words[k], flags[k]) for k in hits
    ]
    stats.circles_emitted = len(emitted)
    cloud.extend([e.circle.center for e in emitted], [e.word for e in emitted])
    stats.wall_time = time.perf_counter() - t0
    return DfsResult(cloud, emitted, stats)


def _finite(points) -> list[complex]:
    """Finite points of a LimitSetCloud or of an iterable of sphere points."""
    if isinstance(points, LimitSetCloud):
        return points.finite_points()
    return [complex(p) for p in points if p is not INFINITY]


def _windowed_finite(points, window: Rectangle):
    import numpy as np

    arr = [(z.real, z.imag) for z in _finite(points) if window.contains(z)]
    return np.asarray(arr, dtype=float).reshape(-1, 2)


def hausdorff_distance(a, b, window: Rectangle) -> float:
    """Symmetric Hausdorff distance between the finite points of two clouds
    restricted to a window, in the plane metric of the window."""
    from scipy.spatial import cKDTree

    pa = _windowed_finite(a, window)
    pb = _windowed_finite(b, window)
    if len(pa) == 0 or len(pb) == 0:
        raise EmptyWindowError("a cloud has no finite points in the window")
    da = cKDTree(pb).query(pa)[0].max()
    db = cKDTree(pa).query(pb)[0].max()
    return float(max(da, db))


class RenderResult(NamedTuple):
    ppm: bytes
    svg: str


def render(
    cloud: LimitSetCloud | Iterable[SpherePoint] | None,
    circles: Iterable[OrientedCircle],
    window: Rectangle,
    resolution: int,
    comment: str | None = None,
) -> RenderResult:
    """Rasterize circle outlines and cloud points into a P6 pixmap and an
    SVG with one element per circle.  Byte-deterministic for fixed inputs."""
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    width = int(resolution)
    xspan = window.x1 - window.x0
    yspan = window.y1 - window.y0
    height = max(1, round(width * yspan / xspan))
    scale = width / xspan

    def to_px(z: complex) -> tuple[float, float]:
        return ((z.real - window.x0) * scale, (window.y1 - z.imag) * scale)

    raster = bytearray(b"\xff" * (width * height * 3))

    def plot(xf: float, yf: float, rgb: tuple[int, int, int]) -> None:
        x = int(xf)
        y = int(yf)
        if 0 <= x < width and 0 <= y < height:
            i = (y * width + x) * 3
            raster[i] = rgb[0]
            raster[i + 1] = rgb[1]
            raster[i + 2] = rgb[2]

    circles = list(circles)
    svg_parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if comment is not None:
        # "--" is not allowed inside an XML comment.
        svg_parts.insert(0, "<!-- " + comment.replace("--", "- -") + " -->")
    svg_parts.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')

    black = (0, 0, 0)
    for c in circles:
        if c.is_line:
            n, d = c.line_geometry()
            p0 = n * d
            direction = n * 1j
            # Clip the line to the window by intersecting with each edge.
            ts: list[float] = []
            for t_axis, lo, hi, other_lo, other_hi, real_axis in (
                ("x", window.x0, window.x1, window.y0, window.y1, True),
                ("y", window.y0, window.y1, window.x0, window.x1, False),
            ):
                comp = direction.real if real_axis else direction.imag
                base = p0.real if real_axis else p0.imag
                if abs(comp) > 1e-15:
                    for edge in (lo, hi):
                        t = (edge - base) / comp
                        q = p0 + t * direction
                        o = q.imag if real_axis else q.real
                        if other_lo - 1e-9 <= o <= other_hi + 1e-9:
                            ts.append(t)
            if len(ts) < 2:
                continue
            t_lo, t_hi = min(ts), max(ts)
            q0, q1 = p0 + t_lo * direction, p0 + t_hi * direction
            x0, y0 = to_px(q0)
            x1, y1 = to_px(q1)
            steps = 2 * max(width, height)
            for s in range(steps + 1):
                f = s / steps
                plot(x0 + f * (x1 - x0), y0 + f * (y1 - y0), black)
            svg_parts.append(
                f'<line x1="{x0:.4f}" y1="{y0:.4f}" x2="{x1:.4f}" y2="{y1:.4f}" '
                f'stroke="#000000" stroke-width="1"/>'
            )
        else:
            m = c.center
            r = c.radius
            cx, cy = to_px(m)
            rpx = r * scale
            if rpx < 0.4:
                plot(cx, cy, black)
            else:
                npts = min(4096, max(16, int(rpx * 8)))
                for sidx in range(npts):
                    t = 2.0 * math.pi * sidx / npts
                    plot(cx + rpx * math.cos(t), cy + rpx * math.sin(t), black)
            svg_parts.append(
                f'<circle cx="{cx:.4f}" cy="{cy:.4f}" r="{rpx:.4f}" '
                f'fill="none" stroke="#000000" stroke-width="1"/>'
            )

    red = (200, 0, 0)
    if cloud is not None:
        for z in _finite(cloud):
            if window.contains(z):
                x, y = to_px(z)
                plot(x, y, red)
                svg_parts.append(
                    f'<rect x="{x:.4f}" y="{y:.4f}" width="1" height="1" fill="#c80000"/>'
                )

    svg_parts.append("</svg>")
    header = b"P6\n"
    if comment is not None:
        for line in comment.splitlines():
            header += b"# " + line.encode("ascii", "replace") + b"\n"
    header += f"{width} {height}\n255\n".encode("ascii")
    return RenderResult(header + bytes(raster), "\n".join(svg_parts) + "\n")
