import cmath
import itertools
import math
import random
import struct

import numpy as np
import pytest

from kleinlab.gasket import OrientedCircle
from kleinlab.mobius import (
    _transport,
    _transport_coeffs,
    DegenerateMatrixError,
    IdentityMapError,
    INFINITY,
    MapClass,
    MoebiusMap,
    chordal_distance,
    moebius_mapping,
    moebius_to_zero_one_inf,
    sphere_coords,
    transform_hermitian,
)

from dfsoracle import letter_products
from randommap import random_map

A_MAT = MoebiusMap(1, 1, 0, 1)
B_MAT = MoebiusMap(1, 0, 2j, 1)


@pytest.mark.parametrize(
    "entries", [(1, math.nan, 0, 1), (complex(1, math.inf), 0, 0, 1), (1, 0, 0, -math.inf)]
)
def test_non_finite_entries_are_degenerate(entries):
    # NaN compares false, so the determinant test alone would pass it.
    with pytest.raises(DegenerateMatrixError, match="matrix entries must be finite"):
        MoebiusMap(*entries)


def test_compose_translation_with_parabolic():
    m = A_MAT.compose(B_MAT)
    assert m.a == pytest.approx(1 + 2j)
    assert m.b == pytest.approx(1)
    assert m.c == pytest.approx(2j)
    assert m.d == pytest.approx(1)


def test_compose_identity_and_inverse():
    rng = random.Random(7)
    ident = MoebiusMap.identity()
    for _ in range(20):
        m = random_map(rng)
        assert m.compose(ident).almost_equal(m)
        assert ident.compose(m).almost_equal(m)
        assert m.compose(m.inverse()).almost_equal(ident)


def test_normalization_gives_unit_determinant():
    rng = random.Random(11)
    for _ in range(50):
        m = random_map(rng)
        det = m.a * m.d - m.b * m.c
        assert abs(det - 1) < 1e-12


def test_degenerate_matrix_rejected():
    with pytest.raises(DegenerateMatrixError):
        MoebiusMap(1, 2, 2, 4)


def test_projective_equality():
    rng = random.Random(13)
    for _ in range(20):
        m = random_map(rng)
        neg = MoebiusMap(-m.a, -m.b, -m.c, -m.d)
        assert m.almost_equal(neg)


def test_apply_sphere_conventions():
    assert A_MAT.apply(INFINITY) is INFINITY
    assert B_MAT.apply(0) == 0
    # pole of b is at -d/c = -1/(2i) = i/2
    assert B_MAT.apply(0.5j) is INFINITY
    m = MoebiusMap(2, 1, 1, 1)
    assert m.apply(INFINITY) == pytest.approx(2.0)


def test_apply_composes():
    rng = random.Random(17)
    for _ in range(30):
        m, n = random_map(rng), random_map(rng)
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        inner = n.apply(z)
        if inner is INFINITY:
            continue
        lhs = m.compose(n).apply(z)
        rhs = m.apply(inner)
        if lhs is INFINITY or rhs is INFINITY:
            assert chordal_distance(lhs, rhs) < 1e-9
        else:
            assert abs(lhs - rhs) < 1e-7


def test_classify():
    assert A_MAT.classify() is MapClass.PARABOLIC
    assert MoebiusMap(2, 0, 0, 0.5).classify() is MapClass.LOXODROMIC
    assert MoebiusMap.identity().classify() is MapClass.IDENTITY
    rot = cmath.exp(0.3j)
    assert MoebiusMap(rot, 0, 0, 1 / rot).classify() is MapClass.ELLIPTIC


def test_classify_is_conjugation_invariant():
    rng = random.Random(19)
    samples = [
        A_MAT,
        MoebiusMap(2, 0, 0, 0.5),
        MoebiusMap(cmath.exp(0.4j), 0, 0, cmath.exp(-0.4j)),
    ]
    for m in samples:
        for _ in range(10):
            g = random_map(rng)
            conj = g.compose(m).compose(g.inverse())
            assert conj.classify() is m.classify()


def test_fixed_points_translation():
    pts = A_MAT.fixed_points()
    assert len(pts) == 1
    assert pts[0][0] is INFINITY


def test_fixed_points_diagonal_tagging():
    # z -> 4z repels from 0 (derivative 4) and attracts at infinity
    pts = dict((tag, p) for p, tag in MoebiusMap(2, 0, 0, 0.5).fixed_points())
    assert pts["repelling"] == 0
    assert pts["attracting"] is INFINITY


def test_fixed_points_identity_rejected():
    with pytest.raises(IdentityMapError):
        MoebiusMap.identity().fixed_points()
    with pytest.raises(IdentityMapError):
        MoebiusMap(-1, 0, 0, -1).fixed_points()


def test_attracting_fixed_point_of_loxodromic():
    m = MoebiusMap(2, 0, 0, 0.5)
    assert m.attracting_fixed_point() is INFINITY
    assert m.inverse().attracting_fixed_point() == 0


def test_chordal_distance():
    assert chordal_distance(0, INFINITY) == pytest.approx(2.0)
    assert chordal_distance(0, 0) == 0.0
    assert chordal_distance(1, -1) == pytest.approx(2.0)  # antipodal on the sphere
    assert chordal_distance(INFINITY, INFINITY) == 0.0
    # agrees with the Euclidean distance of stereographic lifts
    rng = random.Random(23)
    for _ in range(20):
        p = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        q = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lift = lambda x, y, z: (x, y, z)
        d = math.dist(sphere_coords(p), sphere_coords(q))
        assert chordal_distance(p, q) == pytest.approx(d)


def test_sphere_coords_lifts_points_past_the_square_overflow():
    # |z|^2 overflows past about 1.3e154; such a point is lifted through
    # w = 1/z, and its lift mirrors that of 1/conj(z) across the equator.
    for z in (1e200, 2e200 - 3e199j, -1.5e308 + 1.5e308j, 1e155j, 1.4e154 + 1e153j):
        x, y, h = sphere_coords(z)
        xi, yi, hi = sphere_coords(1.0 / z.conjugate())
        assert (x, y, h) == pytest.approx((xi, yi, -hi), rel=1e-15, abs=1e-300)
        assert x * x + y * y + h * h == pytest.approx(1.0)
    assert sphere_coords(1e200) == (2e-200, -0.0, 1.0)
    # Below the overflow every lift keeps the bits of the one formula.
    for z in (1e150 + 3e149j, 1.3e154, -7e153j, 0.3 - 2j):
        n = math.hypot(1.0, abs(z)) ** 2
        assert sphere_coords(z) == (2.0 * z.real / n, 2.0 * z.imag / n, (abs(z) ** 2 - 1.0) / n)


def test_circline_center_radius_roundtrip():
    c = OrientedCircle.from_center_radius(1 + 2j, 0.75)
    assert not c.is_line
    assert c.center == pytest.approx(1 + 2j)
    assert c.radius == pytest.approx(0.75)
    assert c.contains(1 + 2j + 0.75)
    assert not c.contains(1 + 2j)


def test_circline_line_contains_infinity():
    line = OrientedCircle.from_line(1j, 0.0)  # the real axis
    assert line.is_line
    assert line.contains(INFINITY)
    assert line.contains(5.0)
    assert not line.contains(1j)


def test_circline_from_three_points():
    c = OrientedCircle.from_three_points(1, 1j, -1)
    assert not c.is_line
    assert c.center == pytest.approx(0)
    assert c.radius == pytest.approx(1.0)
    line = OrientedCircle.from_three_points(0, 1, INFINITY)
    assert line.is_line
    with pytest.raises(ValueError):
        OrientedCircle.from_three_points(1, 1j, 1)


def test_translate_unit_circle():
    c = OrientedCircle.from_center_radius(0, 1.0).transform(A_MAT)
    assert c.center == pytest.approx(1.0)
    assert c.radius == pytest.approx(1.0)


def test_translation_preserves_real_axis():
    line = OrientedCircle.from_line(1j, 0.0)
    assert line.transform(A_MAT).same_locus(line)


def test_inversion_of_vertical_line():
    # 1/z sends Re z = 1/2 to the circle through 0 and 2; fitting the images
    # of three sample points pins it as center 1, radius 1.
    inv = MoebiusMap(0, 1, 1, 0)
    line = OrientedCircle.from_line(1.0, 0.5)
    image = line.transform(inv)
    samples = [0.5, 0.5 + 1j, 0.5 - 2j]
    fitted = OrientedCircle.from_three_points(*(inv.apply(z) for z in samples))
    assert image.same_locus(fitted)
    assert image.center == pytest.approx(1.0)
    assert image.radius == pytest.approx(1.0)


def test_transform_commutes_with_apply():
    rng = random.Random(29)
    base = OrientedCircle.from_center_radius(0.3 - 0.2j, 1.7)
    for _ in range(25):
        m = random_map(rng)
        image = base.transform(m)
        for t in (0.1, 2.0, 4.0):
            z = 0.3 - 0.2j + 1.7 * cmath.exp(1j * t)
            w = m.apply(z)
            assert image.contains(w, tol=1e-9)


def test_transform_hermitian_matches_circline_transform():
    rng = random.Random(31)
    c = OrientedCircle.from_center_radius(1 + 1j, 2.0)
    for _ in range(10):
        m = random_map(rng)
        A, B, C = transform_hermitian(m, c.A, c.B, c.C)
        assert OrientedCircle(A, B, C).same_locus(c.transform(m))


def test_moebius_to_zero_one_inf():
    m = moebius_to_zero_one_inf(2j, 5.0, INFINITY)
    assert m.apply(2j) == pytest.approx(0)
    assert m.apply(5.0) == pytest.approx(1)
    assert m.apply(INFINITY) is INFINITY


def test_moebius_mapping_three_point_pairs():
    src = (1 + 1j, -2.0, INFINITY)
    dst = (0, 1j, 3.0)
    m = moebius_mapping(src, dst)
    for s, t in zip(src, dst):
        image = m.apply(s)
        if t is INFINITY:
            assert image is INFINITY
        else:
            assert image == pytest.approx(t)


def test_transport_real_form_matches_the_complex_expression():
    # _transport writes CPython's complex products out in real arithmetic,
    # the 0.0 * terms of a float times a complex included, for floats and
    # for arrays alike; every bit must agree, the signs of zeros too.
    rng = random.Random(17)
    maps = [MoebiusMap(1, 1, 0, 1), MoebiusMap(1, 0, 2j, 1), MoebiusMap(1j, 0, 0, -1j), MoebiusMap(0, 1j, 1j, 0)]
    maps += [random_map(rng) for _ in range(40)]

    def component():
        return rng.choice((0.0, -0.0, 1.0, -2.0, rng.gauss(0, 1), rng.gauss(0, 1) * 1e6))

    rows = [tuple(component() for _ in range(4)) for _ in range(60)]
    # Every sign of zero, alone and beside one nonzero component, so that
    # each 0.0 * term decides the sign of some zero.
    zeros = list(itertools.product((0.0, -0.0), repeat=4))
    rows += zeros + [z[:i] + (x,) + z[i + 1 :] for z in zeros for i in range(4) for x in (1.5, -0.75)]
    columns = np.array(rows).T
    negative_zeros = 0
    for m in maps:
        dd, cc, bb, aa, cd, ad, bc, ac, ab, bd = letter_products(m)
        expected = []
        for A, Bre, Bim, C in rows:
            B = complex(Bre, Bim)
            B2 = complex(-A, 0.0) * bd + B * ad + B.conjugate() * bc - complex(C, 0.0) * ac
            expected.append((
                A * dd + C * cc - 2.0 * (B * cd).real,
                B2.real,
                B2.imag,
                A * bb + C * aa - 2.0 * (B * ab).real,
            ))
        coeffs = _transport_coeffs(m)
        packed = b"".join(struct.pack("<4d", *row) for row in expected)
        assert b"".join(struct.pack("<4d", *_transport(coeffs, *row)) for row in rows) == packed
        assert np.array(_transport(coeffs, *columns)).T.astype("<f8").tobytes() == packed
        negative_zeros += sum(math.copysign(1.0, x) < 0 for row in expected for x in row if x == 0.0)
    assert negative_zeros > 0
