"""Moebius transformations on the Riemann sphere, and how they move the
circles and lines they permute.

Matrices are determinant-normalized at construction, so traces are defined up
to a global sign and classification reads off the squared trace.  Circles and
lines are Hermitian coefficient triples, and ``transform_hermitian`` pushes a
triple forward by a map as an exact linear operation on coefficients; the
circle type built on it, ``OrientedCircle``, lives in ``kleinlab.gasket``.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum

__all__ = [
    "INFINITY",
    "SpherePoint",
    "DegenerateMatrixError",
    "IdentityMapError",
    "MapClass",
    "MoebiusMap",
    "chordal_distance",
    "sphere_coords",
    "transform_hermitian",
    "moebius_to_zero_one_inf",
    "moebius_mapping",
]

# Relative threshold below which a denominator counts as a pole hit.
_POLE_EPS = 1e-14
# Tolerance for trace-based classification.
_CLASS_EPS = 1e-9


class DegenerateMatrixError(ValueError):
    """Raised when a matrix with (numerically) zero determinant, or a
    non-finite entry, is used."""


class IdentityMapError(ValueError):
    """Raised when fixed-point extraction is asked of the identity."""


class _Infinity:
    """The point at infinity.

    A dedicated sentinel rather than ``complex(math.inf, 0)`` so that no
    arithmetic on sphere points can silently produce NaNs.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "_Infinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITY"

    def __reduce__(self) -> str:
        return "INFINITY"


INFINITY = _Infinity()
# The point at infinity in a complex array.
_INFINITY_Z = complex(math.inf, math.inf)

SpherePoint = complex | _Infinity


def chordal_distance(p: SpherePoint, q: SpherePoint) -> float:
    """Distance between two sphere points measured through the unit sphere.

    Ranges over [0, 2]; antipodal points realize 2.  Finite inputs may be
    given as anything ``complex()`` accepts.
    """
    if isinstance(p, _Infinity):
        if isinstance(q, _Infinity):
            return 0.0
        q = complex(q)
        return 2.0 / math.hypot(1.0, abs(q))
    if isinstance(q, _Infinity):
        p = complex(p)
        return 2.0 / math.hypot(1.0, abs(p))
    p = complex(p)
    q = complex(q)
    # hypot keeps 1 + |z|^2 from overflowing for |z| near 1e154.
    return 2.0 * abs(p - q) / (math.hypot(1.0, abs(p)) * math.hypot(1.0, abs(q)))


def sphere_coords(p: SpherePoint) -> tuple[float, float, float]:
    """Stereographic lift of a sphere point to unit-sphere coordinates,
    with infinity at the north pole (0, 0, 1).  A point whose |p|^2
    overflows is lifted through w = 1/p instead, as
    (2 Re conj(w), 2 Im conj(w), 1 - |w|^2) / (1 + |w|^2)."""
    if isinstance(p, _Infinity):
        return (0.0, 0.0, 1.0)
    p = complex(p)
    try:
        n = math.hypot(1.0, abs(p)) ** 2
    except OverflowError:
        w = (1.0 / p).conjugate()
        n = 1.0 + abs(w) ** 2
        return (2.0 * w.real / n, 2.0 * w.imag / n, (1.0 - abs(w) ** 2) / n)
    return (2.0 * p.real / n, 2.0 * p.imag / n, (abs(p) ** 2 - 1.0) / n)


class MapClass(Enum):
    IDENTITY = "identity"
    PARABOLIC = "parabolic"
    ELLIPTIC = "elliptic"
    LOXODROMIC = "loxodromic"


class MoebiusMap:
    """A fractional linear map z -> (a z + b) / (c z + d), det-normalized.

    The stored matrix has determinant 1; the matrix is only defined up to a
    global sign, and ``almost_equal`` compares projectively.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex):
        a, b, c, d = complex(a), complex(b), complex(c), complex(d)
        if not all(map(cmath.isfinite, (a, b, c, d))):
            raise DegenerateMatrixError(f"matrix entries must be finite, got {(a, b, c, d)}")
        det = a * d - b * c
        try:  # abs() overflows on a finite entry or determinant past DBL_MAX
            scale = max(abs(a), abs(b), abs(c), abs(d))
            small = scale == 0.0 or abs(det) < 1e-12 * scale * scale
        except OverflowError:
            raise DegenerateMatrixError(f"matrix entries too large, got {(a, b, c, d)}") from None
        if small:
            raise DegenerateMatrixError(f"determinant {det} too small for scale {scale}")
        if not cmath.isfinite(det) or det == 0:
            # The test above misses a determinant that overflows, which
            # would scale every entry to 0, or underflows, which would
            # divide by 0, when scale * scale does the same.
            raise DegenerateMatrixError(f"determinant {det} must be finite and nonzero")
        s = cmath.sqrt(det)
        self.a = a / s
        self.b = b / s
        self.c = c / s
        self.d = d / s

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1, 0, 0, 1)

    @property
    def matrix(self) -> tuple[complex, complex, complex, complex]:
        return (self.a, self.b, self.c, self.d)

    @property
    def trace(self) -> complex:
        return self.a + self.d

    def __repr__(self) -> str:
        return f"MoebiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other: (self.compose(other))(z) == self(other(z))."""
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        out = object.__new__(MoebiusMap)
        out.a = a1 * a2 + b1 * c2
        out.b = a1 * b2 + b1 * d2
        out.c = c1 * a2 + d1 * c2
        out.d = c1 * b2 + d1 * d2
        return out

    __mul__ = compose

    def inverse(self) -> "MoebiusMap":
        out = object.__new__(MoebiusMap)
        out.a = self.d
        out.b = -self.b
        out.c = -self.c
        out.d = self.a
        return out

    def apply(self, p: SpherePoint) -> SpherePoint:
        if isinstance(p, _Infinity):
            scale = abs(self.a) + abs(self.b) + abs(self.c) + abs(self.d)
            if abs(self.c) < _POLE_EPS * scale:
                return INFINITY
            return self.a / self.c
        z = complex(p)
        num = self.a * z + self.b
        den = self.c * z + self.d
        scale = abs(self.a) + abs(self.b) + abs(self.c) + abs(self.d)
        if abs(den) < _POLE_EPS * scale * max(1.0, abs(z)):
            return INFINITY
        return num / den

    __call__ = apply

    def almost_equal(self, other: "MoebiusMap", tol: float = 1e-9) -> bool:
        """Projective comparison: equal as maps, i.e. matrices agree up to sign."""
        plus = max(
            abs(self.a - other.a), abs(self.b - other.b),
            abs(self.c - other.c), abs(self.d - other.d),
        )
        minus = max(
            abs(self.a + other.a), abs(self.b + other.b),
            abs(self.c + other.c), abs(self.d + other.d),
        )
        return min(plus, minus) <= tol

    def classify(self, tol: float = _CLASS_EPS) -> MapClass:
        """Classify by squared trace.

        The parabolic band |tr^2 - 4| < tol is tested first, so maps within
        tol of parabolic are reported parabolic even if the trace is not
        exactly real.  Inside the band, vanishing off-diagonal terms mean
        the identity.
        """
        t2 = self.trace * self.trace
        if abs(t2 - 4.0) < tol:
            if abs(self.b) < tol and abs(self.c) < tol and abs(self.a - self.d) < tol:
                return MapClass.IDENTITY
            return MapClass.PARABOLIC
        if abs(t2.imag) < tol and -tol < t2.real < 4.0:
            return MapClass.ELLIPTIC
        return MapClass.LOXODROMIC

    def fixed_points(self) -> list[tuple[SpherePoint, str]]:
        """Fixed points with stability tags.

        Returns one or two (point, tag) pairs, tag in {"attracting",
        "repelling", "indifferent"}.  Raises IdentityMapError for the
        identity, which fixes everything.
        """
        return self._fixed_points(self.classify())

    def _fixed_points(self, kind: MapClass) -> list[tuple[SpherePoint, str]]:
        """fixed_points of this map, already classified as kind."""
        if kind is MapClass.IDENTITY:
            raise IdentityMapError("the identity fixes every point")
        a, b, c, d = self.a, self.b, self.c, self.d
        scale = abs(a) + abs(b) + abs(c) + abs(d)

        def tag_from_multiplier(m: float) -> str:
            if m < 1.0 - _CLASS_EPS:
                return "attracting"
            if m > 1.0 + _CLASS_EPS:
                return "repelling"
            return "indifferent"

        if abs(c) < _POLE_EPS * scale:
            # z -> (a/d) z + b/d.  Infinity is always fixed; its local
            # multiplier in the chart w = 1/z is d/a.
            out: list[tuple[SpherePoint, str]] = [
                (INFINITY, tag_from_multiplier(abs(d / a)))
            ]
            if abs(a - d) > _POLE_EPS * scale:
                out.append((b / (d - a), tag_from_multiplier(abs(a / d))))
            return out

        if kind is MapClass.PARABOLIC:
            return [((a - d) / (2.0 * c), "indifferent")]

        # Roots of c z^2 + (d - a) z - b = 0; with det 1 the discriminant
        # collapses to tr^2 - 4 and the multiplier at each root is the
        # matching eigenvalue squared.
        tr = a + d
        sq = cmath.sqrt(tr * tr - 4.0)
        if abs(tr + sq) < abs(tr - sq):
            sq = -sq
        lam = (tr + sq) / 2.0  # |lam| >= 1
        z_plus = (a - d + sq) / (2.0 * c)
        z_minus = (a - d - sq) / (2.0 * c)
        # Multiplier at z_plus is 1/lam^2.
        m = abs(lam) ** 2
        return [
            (z_plus, tag_from_multiplier(1.0 / m)),
            (z_minus, tag_from_multiplier(m)),
        ]

    def attracting_fixed_point(self) -> SpherePoint:
        """The point every generic orbit converges to.

        For a loxodromic map this is the attracting fixed point, for a
        parabolic map its unique fixed point.  Elliptic maps and the
        identity have no such point and raise.
        """
        kind = self.classify()
        if kind is MapClass.IDENTITY:
            raise IdentityMapError("the identity has no distinguished fixed point")
        if kind is MapClass.ELLIPTIC:
            raise ValueError("elliptic maps have no attracting fixed point")
        # Two fixed points have reciprocal multipliers and a lone one is
        # indifferent, so some fixed point is not repelling.
        return next(point for point, tag in self._fixed_points(kind) if tag != "repelling")


# The column kernels below repeat MoebiusMap's arithmetic on float64 arrays
# bit for bit.  A matrix is a column of an (8, n) array: Re and Im of a, b,
# c and d.  Each complex operation is written out in the order CPython's
# _Py_c_sum, _Py_c_diff, _Py_c_prod and _Py_c_quot use, and a float operand
# of a complex operation is promoted to complex(x, 0.0) first, as in
# `2.0 * c`; abs(z) is libm hypot, the function np.hypot calls.


def _column(m: MoebiusMap) -> tuple[float, ...]:
    """m's entries in that layout."""
    return tuple(x for entry in m.matrix for x in (entry.real, entry.imag))


def _compose_rows(left, right):
    """left[:, k].compose(right[:, k]) for every column k."""
    import numpy as np

    ar, ai, br, bi, cr, ci, dr, di = left
    er, ei, fr, fi, gr, gi, hr, hi = right

    def dot(xr, xi, yr, yi, ur, ui, vr, vi):
        # x y + u v
        return (
            (xr * yr - xi * yi) + (ur * vr - ui * vi),
            (xr * yi + xi * yr) + (ur * vi + ui * vr),
        )

    return np.array([
        *dot(ar, ai, er, ei, br, bi, gr, gi),
        *dot(ar, ai, fr, fi, br, bi, hr, hi),
        *dot(cr, ci, er, ei, dr, di, gr, gi),
        *dot(cr, ci, fr, fi, dr, di, hr, hi),
    ])


def _quot(ar, ai, br, bi):
    """a / b for columns.  Both of _Py_c_quot's branches are computed and
    the one it takes is kept; a row with b = 0, where it raises, gets
    nan or inf."""
    import numpy as np

    by_real = np.abs(br) >= np.abs(bi)
    with np.errstate(all="ignore"):
        ratio = np.where(by_real, bi / br, br / bi)
        denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
        re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
        im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _sqrt(zr, zi):
    """cmath.sqrt for columns that are finite and not both below DBL_MIN
    in modulus: the branch cmath takes for them."""
    import numpy as np

    ax, ay = np.abs(zr) / 8.0, np.abs(zi)
    s = 2.0 * np.sqrt(ax + np.hypot(ax, ay / 8.0))
    d = ay / (2.0 * s)
    right = zr >= 0.0
    return np.where(right, s, d), np.copysign(np.where(right, d, s), zi)


def _attracting_fixed_points(rows):
    """classify and attracting_fixed_point of the map in each column of
    rows, bit for bit.  Returns (candidate, z): which maps are parabolic
    or loxodromic, and the attracting fixed point of each of those, in
    order, as a complex array with INFINITY as _INFINITY_Z.

    The scalar attracting_fixed_point settles every row the bulk rule
    cannot: the pole branch abs(c) < _POLE_EPS * scale, a row whose z_plus
    might tag as repelling (|lam| below 1 by rounding), and a row whose
    arithmetic leaves the finite floats, where the scalar path may raise.
    """
    import numpy as np

    ar, ai, br, bi, cr, ci, dr, di = rows
    tol = _CLASS_EPS
    with np.errstate(all="ignore"):
        # classify: the band |tr^2 - 4| < tol first, then the identity.
        tr, ti = ar + dr, ai + di
        t2r, t2i = tr * tr - ti * ti, tr * ti + ti * tr
        zr, zi = t2r - 4.0, t2i - 0.0
        band_abs = np.hypot(zr, zi)
        band = band_abs < tol
        abs_c = np.hypot(cr, ci)
        identity = (
            band & (np.hypot(br, bi) < tol) & (abs_c < tol)
            & (np.hypot(ar - dr, ai - di) < tol)
        )
        elliptic = ~band & (np.abs(t2i) < tol) & (-tol < t2r) & (t2r < 4.0)
        candidate = ~(identity | elliptic)

        # _fixed_points.  A parabolic map's point is (a - d) / (2 c); a
        # loxodromic one's z_plus adds sq = sqrt(tr^2 - 4), which is
        # outside the band, so _sqrt's branch holds.
        scale = np.hypot(ar, ai) + np.hypot(br, bi) + abs_c + np.hypot(dr, di)
        sr, si = _sqrt(zr, zi)
        plus, minus = np.hypot(tr + sr, ti + si), np.hypot(tr - sr, ti - si)
        swap = plus < minus
        sr, si = np.where(swap, -sr, sr), np.where(swap, -si, si)
        lr, li = tr + sr, ti + si
        lam = np.hypot((lr + li * 0.0) / 2.0, (li - lr * 0.0) / 2.0)
        m = lam * lam  # the scalar's lam ** 2 may differ in the last place
        nr, ni = ar - dr, ai - di
        nr, ni = np.where(band, nr, nr + sr), np.where(band, ni, ni + si)
        re, im = _quot(nr, ni, 2.0 * cr - 0.0 * ci, 2.0 * ci + 0.0 * cr)
        settled = ~(abs_c < _POLE_EPS * scale) & np.isfinite(scale + band_abs + re + im)
        # With m >= 1 the scalar's 1 / lam ** 2 stays far below the 1 + tol
        # that would tag z_plus repelling.
        settled &= band | (np.isfinite(plus + minus + m) & (m >= 1.0))

    z = re.astype(complex)
    z.imag = im
    for k in (candidate & ~settled).nonzero()[0].tolist():
        fallback = object.__new__(MoebiusMap)
        fallback.a, fallback.b, fallback.c, fallback.d = (
            complex(x, y) for x, y in rows[:, k].reshape(4, 2).tolist()
        )
        point = fallback.attracting_fixed_point()
        z[k] = _INFINITY_Z if point is INFINITY else point
    return candidate, z[candidate]


def _transport_coeffs(m: MoebiusMap) -> tuple:
    """The ten products transform_hermitian reads off m, in its order:
    |d|^2, |c|^2, |b|^2, |a|^2, c conj(d), a conj(d), b conj(c), a conj(c),
    a conj(b) and b conj(d), the last six as Re and Im.  The DFS keeps one
    such table per letter."""
    a, b, c, d = m.a, m.b, m.c, m.d
    return (
        (d * d.conjugate()).real, (c * c.conjugate()).real,
        (b * b.conjugate()).real, (a * a.conjugate()).real,
        *(
            x
            for z in (
                c * d.conjugate(), a * d.conjugate(), b * c.conjugate(),
                a * c.conjugate(), a * b.conjugate(), b * d.conjugate(),
            )
            for x in (z.real, z.imag)
        ),
    )


def transform_hermitian(
    m: MoebiusMap, A: float, B: complex, C: float
) -> tuple[float, complex, float]:
    """Push the Hermitian form A|z|^2 + 2 Re(conj(B) z) + C forward by m.

    The output triple vanishes exactly on the image of the input locus, and
    the side of the sphere where the form is negative maps to the side where
    the output is negative, so orientation is preserved.  m has determinant
    1, so it keeps the discriminant |B|^2 - A C exactly, and nothing
    renormalizes the result: recomputing the discriminant subtracts two
    large near-equal products, and dividing by that noise spoils exact
    Descartes relations at high curvatures.  limit_set_dfs and the bulk
    passes call the same _transport, so their rows equal these bit for bit.
    """
    A2, Bre, Bim, C2 = _transport(_transport_coeffs(m), A, B.real, B.imag, C)
    return A2, complex(Bre, Bim), C2


def _transport(coeffs: tuple, A, Bre, Bim, C):
    """transform_hermitian from a map's _transport_coeffs table, in real
    arithmetic on (A, Re B, Im B, C): floats, or float arrays of one shape.

    The operations are those of the complex expression
        A dd + C cc - 2 Re(B cd),
        -A bd + B ad + conj(B) bc - C ac,
        A bb + C aa - 2 Re(B ab)
    as CPython evaluates it, where a float times a complex is taken as
    complex(x, 0.0) times it: the 0.0 * terms keep its signed zeros.
    """
    dd, cc, bb, aa, cdr, cdi, adr, adi, bcr, bci, acr, aci, abr, abi, bdr, bdi = coeffs
    nA, nBim = -A, -Bim
    return (
        A * dd + C * cc - 2.0 * (Bre * cdr - Bim * cdi),
        (nA * bdr - 0.0 * bdi) + (Bre * adr - Bim * adi) + (Bre * bcr - nBim * bci)
        - (C * acr - 0.0 * aci),
        (nA * bdi + 0.0 * bdr) + (Bre * adi + Bim * adr) + (Bre * bci + nBim * bcr)
        - (C * aci + 0.0 * acr),
        A * bb + C * aa - 2.0 * (Bre * abr - Bim * abi),
    )


def moebius_to_zero_one_inf(p1: SpherePoint, p2: SpherePoint, p3: SpherePoint) -> MoebiusMap:
    """The unique map sending (p1, p2, p3) to (0, 1, infinity)."""
    pts = (p1, p2, p3)
    for i in range(3):
        for j in range(i + 1, 3):
            if chordal_distance(pts[i], pts[j]) < 1e-12:
                raise ValueError("three distinct points are required")
    if isinstance(p1, _Infinity):
        z2, z3 = complex(p2), complex(p3)
        return MoebiusMap(0, z2 - z3, 1, -z3)
    if isinstance(p2, _Infinity):
        z1, z3 = complex(p1), complex(p3)
        return MoebiusMap(1, -z1, 1, -z3)
    if isinstance(p3, _Infinity):
        z1, z2 = complex(p1), complex(p2)
        return MoebiusMap(1, -z1, 0, z2 - z1)
    z1, z2, z3 = complex(p1), complex(p2), complex(p3)
    return MoebiusMap(z2 - z3, -z1 * (z2 - z3), z2 - z1, -z3 * (z2 - z1))


def moebius_mapping(
    src: tuple[SpherePoint, SpherePoint, SpherePoint],
    dst: tuple[SpherePoint, SpherePoint, SpherePoint],
) -> MoebiusMap:
    """The unique map sending the src triple to the dst triple in order."""
    return moebius_to_zero_one_inf(*dst).inverse().compose(moebius_to_zero_one_inf(*src))
