"""Limit sets of marked Moebius groups: fixed-point clouds, depth-first
circle enumeration with diameter pruning, and rasterization.

All dedup and pruning distances are chordal (measured through the unit
sphere), since the limit sets of interest contain the point at infinity.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

from .gasket import CirclePacking, OrientedCircle, _line_geometry, _near_pairs
from .groups import MarkedGroup, reduced_word_count
from .mobius import (
    _INFINITY_Z,
    INFINITY,
    MoebiusMap,
    SpherePoint,
    sphere_coords,
)

__all__ = [
    "EllipticOnlyError",
    "Rectangle",
    "LimitSetCloud",
    "DfsConfig",
    "DfsStats",
    "DfsResult",
    "limit_points_by_fixed_points",
    "limit_set_dfs",
    "RenderResult",
    "render",
]


# Chordal distance below which two cloud points of `points` or `dfs` count
# as one.
_CLOUD_TOLERANCE = 1e-9
# The most words limit_points_by_fixed_points composes, 2^22: every word
# is kept until the cloud dedup and each level is 2 rank - 1 times the last,
# so rank-2 depth 13 (3,188,644 words) runs and depth 14 (9,565,936) is
# refused.
_MAX_WORDS = 1 << 22
# The most letters those words hold together, 2^26: each word is its own
# string, so rank 1, two words per length, would need text quadratic in
# the depth.  Rank-2 depth 13 has 39,858,076 letters; rank 1 runs to 8,191.
_MAX_LETTERS = 1 << 26


class EllipticOnlyError(ValueError):
    """No word up to the bound was parabolic or loxodromic."""


@dataclass(frozen=True)
class Rectangle:
    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate window {self}")
        if not (math.isfinite(self.x1 - self.x0) and math.isfinite(self.y1 - self.y0)):
            raise ValueError(f"window corners and sides must be finite, got {self}")

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


class LimitSetCloud:
    """Deduplicated limit-set sample points in deterministic discovery order.

    A point is kept when its lift to the sphere lies at squared distance
    tol^2 or more from the lift of every point kept before it (the lift
    turns chordal distance into Euclidean distance).

    The kept points are held as columns: `z`, a complex array with the point
    at infinity as inf + inf j, and their `words`.
    """

    def __init__(self, dedup_tolerance: float):
        import numpy as np

        if not dedup_tolerance > 0.0:
            raise ValueError("dedup tolerance must be positive")
        self.dedup_tolerance = dedup_tolerance
        self.z = np.zeros(0, dtype=complex)
        self.words: list[str] = []

    def try_add(self, point: SpherePoint, word: str) -> bool:
        """extend by one point; True when it is kept.  Each call grids the
        whole cloud again, so pass a batch to extend instead."""
        return bool(self.extend([point], [word])[0])

    def extend(self, points, words: list[str]):
        """Offer every (point, word) in order; keep the points the greedy
        rule above keeps, and return which ones as a boolean array.  points
        is a list of SpherePoints or a complex array in the layout of `z`.

        The exact greedy runs only on the pairs gasket._near_pairs finds:
        each new lift with every lift closer than 2 tol, a margin that
        covers the bulk lifts' rounding, taken in order of the new point.
        """
        import numpy as np

        tol = self.dedup_tolerance
        n = len(self)
        points = _plane(points)
        candidates = np.concatenate((self.z, points))
        infinite = np.isinf(candidates.real)
        z = np.where(infinite, 0j, candidates)
        with np.errstate(over="ignore"):  # |z|^2 past DBL_MAX lifts to the pole
            w = np.where(infinite, 0.0, 2.0 / (1.0 + z.real * z.real + z.imag * z.imag))
        lift = (z.real * w, z.imag * w, 1.0 - w)
        a, b = _near_pairs(lift, 2.0 * tol, np.arange(len(candidates)) >= n)
        pairs = sorted(zip(*np.compress(a < b, (b, a), axis=1).tolist()))
        exact = {k: sphere_coords(_sphere_point(candidates[k])) for k in set().union(*pairs)}
        keep = np.ones(len(candidates), dtype=bool)
        for k, i in pairs:
            (px, py, pz), (qx, qy, qz) = exact[i], exact[k]
            if keep[i] and (px - qx) ** 2 + (py - qy) ** 2 + (pz - qz) ** 2 < tol * tol:
                keep[k] = False
        keep = keep[n:]
        self.z = np.concatenate((self.z, points[keep]))
        self.words += itertools.compress(words, keep.tolist())
        return keep

    def __len__(self) -> int:
        return len(self.words)


def _plane(points):
    """A list of SpherePoints as a complex array, the point at infinity as
    inf + inf j; a complex array is returned as is."""
    import numpy as np

    if isinstance(points, np.ndarray):
        return points
    return np.array([_INFINITY_Z if p is INFINITY else p for p in points], dtype=complex)


def _sphere_point(z: complex) -> SpherePoint:
    return INFINITY if math.isinf(z.real) else complex(z)


def limit_points_by_fixed_points(group: MarkedGroup, max_word_len: int) -> LimitSetCloud:
    """Attracting (or parabolic) fixed points of every nontrivial reduced
    word up to max_word_len, visited in length-lexicographic order.

    Level n extends each level-(n-1) word and map, in order, by every
    letter that does not cancel its last one, so each word is composed
    once and the depth-d cloud is an exact prefix of the depth-(d+1) cloud.
    A level is held as the columns of its matrices (mobius._compose_rows),
    classified and solved in bulk, and dropped once the next is built.
    Raises EllipticOnlyError when no word contributes, and ValueError,
    before any word is composed, when there are over _MAX_WORDS words or
    _MAX_LETTERS letters.
    """
    import numpy as np

    from .mobius import _attracting_fixed_points, _column, _compose_rows

    if max_word_len < 1:
        raise ValueError("max_word_len must be >= 1")
    rank = group.alphabet.rank
    # Running totals, so a huge depth stops at the first one over a cap.
    words_total = letters_total = 0
    for n in range(1, max_word_len + 1):
        count = reduced_word_count(rank, n)
        words_total += count
        letters_total += n * count
        if words_total > _MAX_WORDS:
            need = f"{_MAX_WORDS} words that points composes"
        elif letters_total > _MAX_LETTERS:
            need = f"{_MAX_LETTERS} letters that points keeps"
        else:
            continue
        raise ValueError(f"depth {max_word_len} at rank {rank} needs more than the {need}")
    letters = group.alphabet.letters
    table = np.array([_column(group.letter_map(x)) for x in letters]).T
    inverse = np.array([letters.index(x.swapcase()) for x in letters])
    rows = np.array([_column(MoebiusMap.identity())]).T
    words, last = [""], np.array([-1])
    points, kept = [], []
    for _ in range(max_word_len):
        parent, last = (last[:, None] != inverse).nonzero()
        rows = _compose_rows(rows[:, parent], table[:, last])
        words = [words[p] + letters[x] for p, x in zip(parent.tolist(), last.tolist())]
        candidate, z = _attracting_fixed_points(rows)
        points.append(z)
        kept += itertools.compress(words, candidate.tolist())
    cloud = LimitSetCloud(_CLOUD_TOLERANCE)
    cloud.extend(np.concatenate(points), kept)
    if not len(cloud):
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
    cloud_points: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class DfsResult:
    """The emitted circles as one table: `packing` holds their triples as
    transported, in preorder, with each one's word, depth-exhausted flag and
    whether the cloud kept its centre beside it.  The cloud is the centres
    and words that `in_cloud` selects."""

    packing: CirclePacking
    words: list[str]
    depth_exhausted: list[bool]
    in_cloud: list[bool]
    stats: DfsStats


def _circle_meets_window(A: float, B: complex, C: float, w: Rectangle) -> bool:
    """Whether the locus (the curve, not the disk) of the circle with
    coefficients A, B, C meets the closed rectangle."""
    if abs(A) < 1e-9:
        n, d = _line_geometry(B, C)
        vals = [(n.conjugate() * corner).real for corner in w.corners()]
        return min(vals) <= d <= max(vals)
    m = -B / A
    r = 1.0 / abs(A)
    # Distance from center to the rectangle ranges over [dmin, dmax]; the
    # curve meets the rectangle iff r lies in that interval.
    cx = min(max(m.real, w.x0), w.x1)
    cy = min(max(m.imag, w.y0), w.y1)
    dmin = math.hypot(m.real - cx, m.imag - cy)
    dmax = max(abs(corner - m) for corner in w.corners())
    return dmin <= r <= dmax


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
        A, Bre, Bim, C = rows[k].tolist()
        meets[k] = _circle_meets_window(A, complex(Bre, Bim), C, w)
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
    appear in the output alongside the sub-epsilon horizon.  The emitted
    circles' centres, deduplicated as in LimitSetCloud, form the cloud.

    The traversal only records each new triple, as transform_hermitian
    leaves it: a row is its word folded onto its seed by
    OrientedCircle.transform, bit for bit.  The window test, the centres and
    the cloud dedup then run in bulk over all of them, in preorder, and the
    result keeps them as one table.
    """
    import numpy as np

    t0 = time.perf_counter()
    stats = DfsStats()
    # The word tree goes when the traversal returns.
    rows, words, flags = _preorder(group, config, stats)
    if config.window is not None:
        hits = np.flatnonzero(_meets_window(rows, config.window))
        rows = rows[hits]
        words = [words[k] for k in hits.tolist()]
        flags = [flags[k] for k in hits.tolist()]
    packing = CirclePacking.from_columns(np.ascontiguousarray(rows.T))
    stats.circles_emitted = len(packing)
    keep = LimitSetCloud(_CLOUD_TOLERANCE).extend(packing.centres, words)
    stats.cloud_points = int(keep.sum())
    stats.wall_time = time.perf_counter() - t0
    return DfsResult(packing, words, flags, keep.tolist(), stats)


def _preorder(group: MarkedGroup, config: DfsConfig, stats: DfsStats):
    """limit_set_dfs's traversal, counted into stats: each new triple's four
    coefficients as the rows of an (n, 4) array, its word, and whether it
    was flagged depth-exhausted, in preorder.

    The rule is a preorder over the seeds' reduced-word tree, seeds first
    in their order and each node's children in rank order.  A node with
    disc <= 0 is pruned, and so is one that _TripleSet already holds;
    otherwise it is recorded, and then pruned when it is small or at
    max_depth (flagged), or else its children follow: every letter but the
    inverse of its last, prepended, through _transport.

    _WordTree grows that tree's levels in bulk and replays the rule over
    its node ids, so every decision, row and counter is the rule's own.
    The rows are gathered from the tree, and each word is its letter
    prepended to its parent's word.
    """
    import numpy as np

    from .wordtree import _WordTree

    tree = _WordTree(group, config)
    order = np.frombuffer(tree.replay(), dtype=np.int32)
    cols, parent, rank, depth = tree.columns()
    del tree
    coeffs = cols[:, order].T
    depth, parent, rank = depth[order], parent[order], rank[order]
    # Each row's parent as 1 + its index among the rows; 0 for a seed.
    where = np.zeros(cols.shape[1], dtype=np.int32)
    where[order] = np.arange(1, len(order) + 1, dtype=np.int32)
    up = np.where(parent < 0, 0, where[parent])
    del cols, where, order, parent

    A, Bre, Bim, C = coeffs.T
    bb = Bre * Bre + Bim * Bim
    disc = bb - A * C
    ac = A - C
    small = 16.0 * disc < (config.epsilon * config.epsilon) * (4.0 * bb + ac * ac)
    capped = depth >= config.max_depth
    grown = ~small & ~capped
    nletters = len(group.alphabet.letters)
    visited = len(config.seeds) + int(np.where(depth == 0, nletters, nletters - 1)[grown].sum())
    stats.words_visited += visited
    stats.branches_pruned += visited - len(coeffs) + int(small.sum())
    stats.depth_exhausted_branches += int((capped & ~small).sum())
    if grown.any():
        stats.max_depth_reached = max(stats.max_depth_reached, int(depth[grown].max()) + 1)
    flags = (capped & ~small).tolist()

    names = [*group.alphabet.letters, ""]  # rank -1, a seed, adds no letter
    words = [""]
    append = words.append
    for p, r in zip(memoryview(up), memoryview(rank)):
        append(names[r] + words[p])
    del words[0]
    return coeffs, words, flags


# Outline samples render paints per pass, which bounds its memory.
_SAMPLES_PER_PASS = 1 << 20
# The most pixels render draws, 8192^2: a raster of 192 MiB.
_MAX_PIXELS = 1 << 26


class RenderResult(NamedTuple):
    ppm: bytes
    svg: str


def _raster_size(window: Rectangle, resolution: int) -> tuple[int, int]:
    """The (width, height) of render's raster.  ValueError when the raster
    would hold more than _MAX_PIXELS pixels."""
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    width = int(resolution)
    # Both factors are clamped just past the cap, so that no width or
    # window overflows a float; a clamped raster is over the cap anyway.
    rows = min(width, _MAX_PIXELS + 1) * (window.y1 - window.y0) / (window.x1 - window.x0)
    height = max(1, round(min(rows, _MAX_PIXELS + 1)))
    if width * height > _MAX_PIXELS:
        raise ValueError(
            f"a {width} x {height} raster is {width * height} pixels, "
            f"over the {_MAX_PIXELS} that render draws"
        )
    return width, height


def render(
    packing: CirclePacking,
    in_cloud: list[bool],
    window: Rectangle,
    resolution: int,
    comment: str | None = None,
) -> RenderResult:
    """Rasterize circle outlines and cloud points into a P6 pixmap and an
    SVG with one element per circle.  The cloud points are the centres of
    the circles that the booleans in_cloud select.  Byte-deterministic for
    fixed inputs.

    The pixels are those of plotting, in order, each circle's outline (a
    dot below 0.4 px of radius) and line in black, then each cloud point in
    window in red, where a sample (xf, yf) paints pixel (int(xf), int(yf)).
    The outline angles take math's cos and sin, as the samples always have.
    """
    ppm, svg = _render(packing, in_cloud, window, resolution, comment)
    return RenderResult(ppm, "".join(svg))


def _render(
    packing: CirclePacking,
    in_cloud: list[bool],
    window: Rectangle,
    resolution: int,
    comment: str | None = None,
):
    """render's pixmap, painted in full, and its SVG as an iterator of text
    blocks of whole lines, each formatted as it is read."""
    import numpy as np

    width, height = _raster_size(window, resolution)
    scale = width / (window.x1 - window.x0)

    raster = np.full((height * width, 3), 255, dtype=np.uint8)

    def paint(xf, yf, rgb: tuple[int, int, int]) -> None:
        # int() truncates toward zero, so a sample in (-1, 0) lands on 0.
        on = (xf > -1.0) & (xf < width) & (yf > -1.0) & (yf < height)
        raster[yf[on].astype(np.int64) * width + xf[on].astype(np.int64)] = rgb

    black = (0, 0, 0)
    z = packing.centres
    lines = packing.lines
    with np.errstate(divide="ignore", invalid="ignore"):  # lines are redone
        cx = (z.real - window.x0) * scale
        cy = (window.y1 - z.imag) * scale
        rpx = 1.0 / abs(packing.columns[0]) * scale
    dot = ~lines & (rpx < 0.4)
    paint(cx[dot], cy[dot], black)
    ring = np.flatnonzero(~lines & (rpx >= 0.4))
    # min(4096, max(16, int(rpx * 8))), clipped before the cast.
    npts = np.clip(rpx[ring] * 8, 16, 4096).astype(np.int64)
    # The cos and sin tables of every outline size, end to end.
    sizes = np.unique(npts)
    cos_t, sin_t = (
        np.fromiter((f(2.0 * math.pi * s / m) for m in sizes.tolist() for s in range(m)), float)
        for f in (math.cos, math.sin)
    )
    table_start = np.cumsum(sizes) - sizes
    # Outlines a pass at a time, each pass about _SAMPLES_PER_PASS samples.
    passes = np.cumsum(npts) // _SAMPLES_PER_PASS
    for part in np.split(np.arange(len(ring)), np.flatnonzero(np.diff(passes)) + 1):
        count = npts[part]
        owner = np.repeat(ring[part], count)
        # Sample s of an outline reads entry s of its size's table.
        shift = table_start[np.searchsorted(sizes, count)] - (np.cumsum(count) - count)
        sample = np.repeat(shift, count) + np.arange(len(owner))
        px = cx[owner] + rpx[owner] * cos_t[sample]
        paint(px, cy[owner] + rpx[owner] * sin_t[sample], black)

    # Each line's SVG line, "" for a line that misses the window.
    line_elements: dict[int, str] = {}
    for k in np.flatnonzero(lines).tolist():
        _, Bre, Bim, C = packing.columns[:, k].tolist()
        n, d = _line_geometry(complex(Bre, Bim), C)
        p0 = n * d
        direction = n * 1j
        # Clip the line to the window by intersecting with each edge.
        ts: list[float] = []
        for lo, hi, other_lo, other_hi, real_axis in (
            (window.x0, window.x1, window.y0, window.y1, True),
            (window.y0, window.y1, window.x0, window.x1, False),
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
            line_elements[k] = ""
            continue
        t_lo, t_hi = min(ts), max(ts)
        q0, q1 = p0 + t_lo * direction, p0 + t_hi * direction
        x0, y0 = (q0.real - window.x0) * scale, (window.y1 - q0.imag) * scale
        x1, y1 = (q1.real - window.x0) * scale, (window.y1 - q1.imag) * scale
        steps = 2 * max(width, height)
        f = np.arange(steps + 1) / steps
        paint(x0 + f * (x1 - x0), y0 + f * (y1 - y0), black)
        line_elements[k] = (
            f'<line x1="{x0:.4f}" y1="{y0:.4f}" x2="{x1:.4f}" y2="{y1:.4f}" '
            f'stroke="#000000" stroke-width="1"/>\n'
        )

    x, y = z.real, z.imag
    inside = (window.x0 <= x) & (x <= window.x1) & (window.y0 <= y) & (y <= window.y1)
    dots = np.asarray(in_cloud, dtype=bool) & inside
    paint(cx[dots], cy[dots], (200, 0, 0))

    header = b"P6\n"
    if comment is not None:
        for line in comment.splitlines():
            header += b"# " + line.encode("ascii", "replace") + b"\n"
    header += f"{width} {height}\n255\n".encode("ascii")

    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n'
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>\n'
    )
    if comment is not None:
        # "--" is not allowed inside an XML comment.
        head = "<!-- " + comment.replace("--", "- -") + " -->\n" + head
    # One copy of the raster, not a tobytes() copy and then a second one.
    ppm = b"".join((header, raster))
    return ppm, _svg_blocks(head, cx, cy, rpx, line_elements, dots)


# Circles per block of SVG elements that _render formats at a time.
_SVG_BLOCK = 1 << 10


def _svg_blocks(head: str, cx, cy, rpx, line_elements: dict[int, str], dots):
    """The SVG text in blocks: the head, one circle or line element per
    circle, a red square per cloud point that `dots` selects, and the
    closing tag.  Each centre's x and y are formatted once, for its circle
    and its cloud point alike; the squares of each block wait, as one
    string, for the elements to end."""
    yield head
    circle = '<circle cx="%s" cy="%s" r="%.4f" fill="none" stroke="#000000" stroke-width="1"/>\n'
    rect = '<rect x="%s" y="%s" width="1" height="1" fill="#c80000"/>\n'
    squares = []
    for lo in range(0, len(cx), _SVG_BLOCK):
        hi = lo + _SVG_BLOCK
        xs, ys = (list(map("%.4f".__mod__, v[lo:hi].tolist())) for v in (cx, cy))
        elements = list(map(circle.__mod__, zip(xs, ys, rpx[lo:hi].tolist())))
        for k, text in line_elements.items():
            if lo <= k < hi:
                elements[k - lo] = text
        yield "".join(elements)
        kept = itertools.compress(zip(xs, ys), dots[lo:hi].tolist())
        squares.append("".join(map(rect.__mod__, kept)))
    yield from squares
    yield "</svg>\n"
