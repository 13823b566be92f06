import itertools
import math
import random
import re
import struct
from importlib import resources

import numpy as np
import pytest
from scipy.spatial import cKDTree

from kleinlab import gasket
from kleinlab.gasket import (
    CirclePacking,
    NoTangentTripleError,
    OrientedCircle,
    OverlappingCirclesError,
    STANDARD_TANGENCY_POINTS,
    TangencyGraph,
    apply_to_packing,
    bounded_gasket,
    descartes_residual,
    detect_tangencies,
    dump_packing,
    is_apollonian_like,
    load_packing,
    normalize_to_standard_gasket,
    standard_base_quadruple,
    standard_base_triple,
    standard_gasket,
    tangency_point,
    tangent_quadruple_flip,
    _FINEST_CELL,
    _cap_candidates,
    _columns,
    _moved_curvatures,
    _near_pairs,
    _scan_products,
    _TripleSet,
    _triple_key,
)
from kleinlab.groups import _format_lines, load_marking
from kleinlab.limitset import DfsConfig, Rectangle, limit_set_dfs
from kleinlab.mobius import INFINITY, MoebiusMap, chordal_distance
from kleinlab.wordtree import _rounded_keys

from randommap import random_map


def test_descartes_residual_values():
    assert descartes_residual(-1, 2, 2, 3) == 0
    assert descartes_residual(0, 0, 1, 1) == 0
    assert descartes_residual(0, 0, 2, 2) == 0
    assert descartes_residual(1, 1, 1, 1) == 8


def test_descartes_residual_is_symmetric():
    vals = (-1.0, 2.0, 2.0, 3.0)
    results = {descartes_residual(*p) for p in itertools.permutations(vals)}
    assert results == {0.0}
    vals = (0.5, 1.5, 2.5, 4.0)
    results = {descartes_residual(*p) for p in itertools.permutations(vals)}
    assert len(results) == 1


def test_oriented_circle_geometry():
    c = OrientedCircle.from_center_radius(1 - 1j, 0.25)
    assert c.center == pytest.approx(1 - 1j)
    assert c.radius == pytest.approx(0.25)
    assert c.curvature == pytest.approx(4.0)
    assert not c.is_line
    r = c.reversed()
    assert r.curvature == pytest.approx(-4.0)
    assert r.center == pytest.approx(1 - 1j)


def test_oriented_circle_line():
    line = OrientedCircle.from_line(-1j, -0.5)  # disk Im z >= 1/2
    assert line.is_line
    assert line.curvature == 0.0
    assert line.evaluate(2j) < 0  # interior
    assert line.evaluate(0) > 0
    n, d = line.line_geometry()
    assert n == pytest.approx(-1j)
    assert d == pytest.approx(-0.5)


def test_transform_translates_center():
    c = OrientedCircle.from_center_radius(0, 1.0)
    shift = MoebiusMap(1, 1, 0, 1)
    img = c.transform(shift)
    assert img.center == pytest.approx(1.0)
    assert img.radius == pytest.approx(1.0)
    assert img.curvature == pytest.approx(1.0)


def test_transform_keeps_unit_discriminant():
    # determinant-1 transport preserves |B|^2 - AC exactly, which the exact
    # Descartes checks downstream rely on
    rng = random.Random(41)
    c = OrientedCircle.from_center_radius(0.3 + 0.4j, 0.7)
    for _ in range(20):
        img = c.transform(random_map(rng))
        disc = abs(img.B) ** 2 - img.A * img.C
        assert disc == pytest.approx(1.0, abs=1e-9)


def test_triple_set_dedups_across_rounding_boundary():
    grid = _TripleSet.GRID
    # A sits 0.496 and 0.504 grid steps past 2: the two triples round to
    # different keys yet are 8e-11 apart, so the neighbour probe must match.
    low = (2.496 * grid, 0.3, -0.7, 0.25)
    high = (2.504 * grid, 0.3, -0.7, 0.25)
    assert high[0] - low[0] < 1e-10
    assert round(low[0] / grid) != round(high[0] / grid)
    for first, second in ((low, high), (high, low)):
        seen = _TripleSet()
        assert seen.try_add(*first)
        assert not seen.try_add(*second)
        assert not seen.try_add(*first)
        # A triple's negation is the same locus.
        assert not seen.try_add(*(-q for q in first))
        assert not seen.try_add(*(-q for q in second))
        # Three grid steps away in any one component is a different triple.
        far = [list(first) for _ in range(4)]
        for i in range(4):
            far[i][i] += 3 * grid
            assert seen.try_add(*far[i])


def full_probe_try_add(seen, grid, A, Bre, Bim, C):
    """_TripleSet.try_add without the one-lookup fast path: the triple is
    made sign-canonical (first nonzero component positive), then every
    neighbor key of a component within 0.01 of a rounding boundary is
    probed."""
    for q in (A, Bre, Bim, C):
        if q != 0.0:
            if q < 0.0:
                A, Bre, Bim, C = -A, -Bre, -Bim, -C
            break
    comps = (A / grid, Bre / grid, Bim / grid, C / grid)
    key = tuple(round(q) for q in comps)
    options = []
    for q, k in zip(comps, key):
        opts = [k]
        if q - k > 0.49:
            opts.append(k + 1)
        elif q - k < -0.49:
            opts.append(k - 1)
        options.append(opts)
    if any(probe in seen for probe in itertools.product(*options)):
        return False
    seen.add(key)
    return True


def test_triple_set_fast_path_matches_full_probe():
    grid = _TripleSet.GRID
    rng = random.Random(73)
    # Components on a coarse lattice of grid steps, nudged to within 0.02 of
    # a rounding boundary or onto a key, so that near-duplicates, boundary
    # straddlers and exact repeats are all common.
    def component():
        return (rng.randrange(-3, 4) + rng.choice((0.0, 0.5)) + rng.uniform(-0.02, 0.02)) * grid

    triples = [tuple(component() for _ in range(4)) for _ in range(20000)]
    fast, reference = _TripleSet(), set()
    decisions = [fast.try_add(*t) for t in triples]
    assert decisions == [full_probe_try_add(reference, grid, *t) for t in triples]
    assert fast._seen == {_triple_key(*key) for key in reference}
    assert 0 < sum(decisions) < len(decisions)


def test_triple_set_keys_past_int64_stay_tuples():
    # Every component of a key that fits in int64 is packed into 32 bytes;
    # a key with one that does not is kept as its tuple.
    assert _triple_key(1, -2, 3, -4) == struct.pack("<4q", 1, -2, 3, -4)
    assert type(_triple_key(2**63 - 1, -(2**63), 0, 0)) is bytes
    assert _triple_key(2**63, 0, 0, 0) == (2**63, 0, 0, 0)
    assert _triple_key(0, 0, 0, -(2**63) - 1) == (0, 0, 0, -(2**63) - 1)
    big = 2.0**64 * _TripleSet.GRID
    small = (0.5, 0.3, -0.7, 0.25)
    seen = _TripleSet()
    assert seen.try_add(big, *small[1:])
    assert seen.try_add(*small)
    assert sorted(type(key).__name__ for key in seen._seen) == ["bytes", "tuple"]
    # Both forms dedup exactly, the negation included, and never collide.
    assert not seen.try_add(big, *small[1:])
    assert not seen.try_add(-big, *(-q for q in small[1:]))
    assert not seen.try_add(*small)
    assert seen.try_add(big, 0.3, -0.7, 0.5)
    assert seen.try_add(0.5, 0.3, -0.7, big)
    assert len(seen._seen) == 4


def test_rounded_keys_match_try_add():
    # The array form of try_add's rule: the same sign-canonical rounded key,
    # a near flag exactly where try_add probes a neighbour key, and the rows
    # it cannot pack, non-finite or past int64, left to try_add.
    grid = _TripleSet.GRID
    rng = random.Random(29)
    rows = [tuple(rng.gauss(0, 1) * rng.choice((1e-9, 1e-6, 1.0, 1e4)) for _ in range(4)) for _ in range(400)]
    # Components planted within 0.01 grid step of a rounding boundary.
    for _ in range(400):
        row = [rng.gauss(0, 1) for _ in range(4)]
        for i in rng.sample(range(4), rng.randint(1, 3)):
            row[i] = (rng.randrange(-50, 50) + 0.5 + rng.uniform(-0.012, 0.012)) * grid
        rows.append(tuple(row))
    rows += [tuple(-x for x in row) for row in rows[:200]]
    rows += [(-0.0, 0.0, -0.0, -3.0), (0.0, -0.0, 2.0, -1.0), (-0.0, -0.0, -0.0, -0.0), (0.0, -2.5 * grid, 1.0, 0.0)]
    big = 2.0**64 * grid
    rows += [(big, 0.3, -0.7, 0.25), (-big, 0.3, 0.7, 0.25), (0.5, 0.3, -0.7, big), (2.0**62 * grid, 1.0, 2.0, 3.0)]
    rows += [(math.inf, 0.0, 0.0, 1.0), (0.0, -math.inf, 1.0, 1.0), (math.nan, 1.0, 0.0, 0.0)]
    keys, near, packed = _rounded_keys(*np.array(rows).T)
    assert near.sum() > 300 and 0 < (~packed).sum() < 10
    for row, key, is_near, is_packed in zip(rows, keys.tolist(), near.tolist(), packed.tolist()):
        seen = _TripleSet()
        if not all(map(math.isfinite, row)):
            assert not is_packed
            with pytest.raises((OverflowError, ValueError)):
                seen.try_add(*row)
            continue
        assert seen.try_add(*row)
        (stored,) = seen._seen
        if not is_packed:
            assert type(stored) is tuple
            continue
        assert stored == _triple_key(*key)
        neighbours = _TripleSet()
        for i in range(4):
            for step in (-1, 1):
                probe = list(key)
                probe[i] += step
                neighbours._seen.add(_triple_key(*probe))
        assert neighbours.try_add(*row) is not is_near


def test_tangency_point_of_touching_circles():
    c1 = OrientedCircle.from_center_radius(0, 1.0)
    c2 = OrientedCircle.from_center_radius(2.0, 1.0)
    assert c1.inversive_product(c2) == pytest.approx(-2.0)
    assert tangency_point(c1, c2) == pytest.approx(1.0)


def test_tangency_point_of_parallel_lines():
    low, high, middle = standard_base_triple()
    assert tangency_point(low, high) is INFINITY
    assert tangency_point(low, middle) == pytest.approx(0)
    assert tangency_point(high, middle) == pytest.approx(1j)


def test_detect_tangencies_examples():
    packing = CirclePacking(
        [
            OrientedCircle.from_center_radius(0, 1.0),
            OrientedCircle.from_center_radius(2.0, 1.0),
            OrientedCircle.from_center_radius(10.0, 1.0),
        ]
    )
    graph = detect_tangencies(packing)
    assert graph.has_edge(0, 1)
    assert not graph.has_edge(0, 2)
    assert not graph.has_edge(1, 2)
    assert graph.edge_point(0, 1) == pytest.approx(1.0)


def test_detect_tangencies_base_triple():
    graph = detect_tangencies(CirclePacking(standard_base_triple()))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert graph.has_edge(i, j)
    assert graph.edge_point(0, 1) is INFINITY


def test_detect_tangencies_rejects_overlap():
    packing = CirclePacking(
        [
            OrientedCircle.from_center_radius(0, 1.0),
            OrientedCircle.from_center_radius(1.0, 1.0),
        ]
    )
    with pytest.raises(OverlappingCirclesError):
        detect_tangencies(packing)


def test_tangency_graph_is_moebius_invariant():
    rng = random.Random(43)
    packing = standard_gasket(1)
    edges = {(e.i, e.j) for e in detect_tangencies(packing).edges}
    for _ in range(5):
        g = random_map(rng)
        moved = detect_tangencies(apply_to_packing(g, packing), tol=1e-6)
        assert {(e.i, e.j) for e in moved.edges} == edges


def test_tangency_points_transport():
    rng = random.Random(47)
    packing = CirclePacking(standard_base_triple())
    base = detect_tangencies(packing)
    g = random_map(rng)
    moved = detect_tangencies(apply_to_packing(g, packing))
    for e in base.edges:
        expected = g.apply(e.point)
        assert chordal_distance(moved.edge_point(e.i, e.j), expected) < 1e-7


def test_quadruple_flip_strip():
    low, high, c0 = standard_base_triple()
    c1 = OrientedCircle.from_center_radius(1.0 + 0.5j, 0.5)
    assert descartes_residual(low.A, high.A, c0.A, c1.A) == 0
    flipped = tangent_quadruple_flip(low, high, c0, c1)
    assert flipped.center == pytest.approx(-1 + 0.5j)
    assert flipped.radius == pytest.approx(0.5)


def test_quadruple_flip_bounded():
    outer = OrientedCircle.from_center_radius(0, 1.0).reversed()
    left = OrientedCircle.from_center_radius(-0.5, 0.5)
    right = OrientedCircle.from_center_radius(0.5, 0.5)
    top = OrientedCircle.from_center_radius(2j / 3, 1.0 / 3.0)
    bottom = tangent_quadruple_flip(outer, left, right, top)
    assert bottom.center == pytest.approx(-2j / 3)
    assert bottom.curvature == pytest.approx(3.0)
    # flip is an involution on the quadruple
    again = tangent_quadruple_flip(outer, left, right, bottom)
    assert again.center == pytest.approx(top.center)
    assert again.radius == pytest.approx(top.radius)


def test_bounded_gasket_first_generation_curvatures():
    curvatures = sorted(round(c.curvature, 9) for c in bounded_gasket(1).circles)
    assert curvatures == [-1.0, 2.0, 2.0, 3.0, 3.0, 6.0, 6.0, 15.0]


def test_standard_gasket_counts_and_anchor():
    packing = standard_gasket(2)
    assert len(packing.circles) == 38
    # the first three circles are the anchor triple
    graph = detect_tangencies(CirclePacking(packing.circles[:3]))
    assert graph.edge_point(0, 1) is INFINITY
    assert graph.edge_point(0, 2) == pytest.approx(0)
    assert graph.edge_point(1, 2) == pytest.approx(1j)


def test_standard_gasket_curvatures_are_even_integers():
    for c in standard_gasket(2).circles:
        k = c.curvature
        assert k == round(k)
        assert round(k) % 2 == 0


def test_normalize_standard_is_identity():
    u = normalize_to_standard_gasket(standard_gasket(1))
    assert u.almost_equal(MoebiusMap.identity(), tol=1e-9)


def test_normalize_recovers_known_distortion():
    rng = random.Random(53)
    packing = standard_gasket(2)
    for _ in range(10):
        g = random_map(rng)
        recovered = normalize_to_standard_gasket(apply_to_packing(g, packing))
        assert recovered.compose(g).almost_equal(MoebiusMap.identity(), tol=1e-6)


def test_normalize_needs_a_triangle():
    packing = CirclePacking(
        [
            OrientedCircle.from_center_radius(0, 1.0),
            OrientedCircle.from_center_radius(2.0, 1.0),
            OrientedCircle.from_center_radius(4.0, 1.0),
            OrientedCircle.from_center_radius(6.0, 1.0),
        ]
    )
    with pytest.raises(NoTangentTripleError):
        normalize_to_standard_gasket(packing)


def test_is_apollonian_like_passes_bounded_truncation():
    verdict = is_apollonian_like(bounded_gasket(3))
    assert verdict.passed
    assert verdict.connected
    assert verdict.overlap_pairs == ()
    assert verdict.quadruples_checked == 53
    assert verdict.worst_residual == 0.0


def test_is_apollonian_like_flags_perturbed_radius():
    circles = list(bounded_gasket(2).circles)
    bad = OrientedCircle.from_center_radius(
        circles[3].center, circles[3].radius * 1.05
    )
    circles[3] = bad
    verdict = is_apollonian_like(CirclePacking(circles), tangency_tol=0.2)
    assert not verdict.passed
    assert verdict.failures


def test_verdict_is_local_under_deletion():
    # The verdict checks each quadruple it finds, not that the packing is
    # complete: removing any one circle leaves a packing that passes.
    circles = bounded_gasket(3).circles
    assert len(circles) == 56
    for k in range(len(circles)):
        assert is_apollonian_like(CirclePacking(circles[:k] + circles[k + 1 :])).passed, k


def test_verdict_fails_when_any_radius_moves_by_1e4():
    circles = bounded_gasket(3).circles
    rng = random.Random(79)
    for k, c in enumerate(circles):
        moved = OrientedCircle.from_center_radius(c.center, c.radius + rng.choice((-1e-4, 1e-4)))
        packing = list(circles)
        packing[k] = moved.reversed() if c.curvature < 0 else moved
        assert not is_apollonian_like(CirclePacking(packing)).passed, k


def test_is_apollonian_like_needs_four_circles():
    with pytest.raises(ValueError):
        is_apollonian_like(CirclePacking(standard_base_triple()))


def test_packing_roundtrip_through_text():
    packing = CirclePacking(standard_base_quadruple())
    text = dump_packing(packing)
    loaded = load_packing(text)
    assert len(loaded.circles) == 4
    for original, parsed in zip(packing.circles, loaded.circles):
        assert parsed.A == pytest.approx(original.A, abs=1e-15)
        assert parsed.B.real == pytest.approx(original.B.real, abs=1e-15)
        assert parsed.B.imag == pytest.approx(original.B.imag, abs=1e-15)
        assert parsed.C == pytest.approx(original.C, abs=1e-15)


def test_packing_text_enclosing_circle():
    packing = CirclePacking([OrientedCircle.from_center_radius(0, 1.0).reversed()])
    text = dump_packing(packing)
    loaded = load_packing(text)
    assert loaded.circles[0].curvature == pytest.approx(-1.0)


def test_load_packing_accepts_comments():
    text = "# header\n\nC 0 0 1\nL 0 -1 -0.5\n"
    packing = load_packing(text)
    assert len(packing.circles) == 2
    assert packing.circles[1].is_line


def test_load_packing_rejects_garbage():
    with pytest.raises(ValueError) as err:
        load_packing("C 0 0 1\nQ 1 2 3\n")
    assert "2" in str(err.value)


def test_loaded_circles_keep_exact_discriminant():
    # the text format stores center/radius; reconstruction must not
    # renormalize, or high-curvature circles drift and Descartes residuals
    # blow up far past any useful tolerance
    c = OrientedCircle.from_center_radius(0.251 + 0.377j, 1.0 / 13794.0)
    disc = abs(c.B) ** 2 - c.A * c.C
    assert disc == pytest.approx(1.0, abs=1e-7)
    reloaded = load_packing(dump_packing(CirclePacking([c]))).circles[0]
    assert reloaded.curvature == pytest.approx(13794.0, rel=1e-12)


def dump_oracle(circles):
    """dump_packing as it was: one f-string per circle."""
    rows = []
    for c in circles:
        if c.is_line:
            n, d = c.line_geometry()
            rows.append(f"L {n.real:.17g} {n.imag:.17g} {d:.17g}")
        else:
            m = c.center
            rows.append(f"C {m.real:.17g} {m.imag:.17g} {1.0 / c.A:.17g}")
    return "\n".join(rows) + "\n"


def load_oracle(text):
    """load_packing as it was: one OrientedCircle per row, and each error
    after its line number."""
    circles = []
    for line_no, line in _format_lines(text):
        try:
            parts = line.split()
            if len(parts) != 4 or parts[0] not in ("C", "L"):
                raise ValueError("expected 'C re im radius' or 'L re im offset'")
            x, y, v = (float(p) for p in parts[1:])
            if parts[0] == "C":
                if v == 0.0:
                    raise ValueError("zero radius")
                c = OrientedCircle.from_center_radius(complex(x, y), abs(v))
                circles.append(c.reversed() if v < 0 else c)
            else:
                circles.append(OrientedCircle.from_line(complex(x, y), v))
        except ValueError as exc:
            raise ValueError(f"line {line_no}: {exc}") from None
    if not circles:
        raise ValueError("packing file defines no circles")
    return circles


def crafted_circles():
    """Triples whose centre components are +0.0 and -0.0, with A of both
    signs; lines; enclosing circles; and a transformed gasket."""
    circles = [
        OrientedCircle._from_unit_triple(A, complex(Bre, Bim), (Bre * Bre + Bim * Bim - 1.0) / A)
        for A in (2.0, -2.0, 3e-9)
        for Bre in (0.0, -0.0, 0.75)
        for Bim in (0.0, -0.0, -0.5)
    ]
    circles += [
        OrientedCircle.from_line(1j, 0.0),
        OrientedCircle.from_line(-1j, -1.0),
        OrientedCircle.from_line(-0.6 + 0.8j, 2.5),
        OrientedCircle.from_center_radius(0.25 - 0.5j, 1.5).reversed(),
    ]
    m = MoebiusMap(1.0 + 0.5j, 0.2, -0.3j, 1.0)
    return circles + [c.transform(m) for c in bounded_gasket(2).circles]


def test_dump_packing_matches_per_row_oracle(monkeypatch):
    circles = crafted_circles()
    text = dump_packing(CirclePacking(circles))
    assert text == dump_oracle(circles)
    # Rows formatted a few at a time, the lines in later blocks.
    monkeypatch.setattr(gasket, "_ROW_BLOCK", 4)
    assert dump_packing(CirclePacking(circles)) == text
    rows = text.splitlines()
    assert {row.split()[1] for row in rows[:27]} >= {"0", "-0"}
    assert {row.split()[2] for row in rows[:27]} >= {"0", "-0"}
    assert sum(row.startswith("L ") for row in rows) == 3
    assert rows[30].startswith("C 0.25 -0.5 -1.5")
    # A packing made from columns writes the same rows.
    assert dump_packing(CirclePacking.from_columns(_columns(circles))) == text
    assert dump_packing(CirclePacking([])) == "\n"


def test_load_packing_matches_per_row_oracle():
    text = dump_oracle(crafted_circles()) + (
        "C -0 0 -3\nC 0 -0.0 2\nC 1e-300 -1e300 5e-324\nC 1e200 0 1e-200\n"
        "L -0 -2 -0.0\nL 1e-310 0 1\n"
    )
    # Bit for bit: signed zeros and the infinities of overflow included.
    assert load_packing(text).columns.tobytes() == _columns(load_oracle(text)).tobytes()


@pytest.mark.parametrize(
    "text",
    [
        "C 0 0 1\nC 0 0 0\n",
        "C 0 0 -0.0\n",
        "C 0 0 1\n# c\nC 0 0 nan\nC 0 0 0\n",
        "C 0 0 1\nL 0 0 1\n",
        "L -0 0.0 2\n",
        "C 0 x 1\n",
        "C 0 0\n",
        "\n\nQ 1 2 3\n",
        "",
        "# only a comment\n\n",
        "L 1 0 nan\nC 0 0 1 # ok\nC 1 1 0\n",
    ],
)
def test_load_packing_errors_match_per_row_oracle(text):
    with pytest.raises(ValueError) as want:
        load_oracle(text)
    with pytest.raises(ValueError) as got:
        load_packing(text)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("row", ["C nan 0 1", "C 0 -inf 1", "C 0 0 1e400", "C 0 0 -inf",
                                 "L nan 1 0", "L 0 inf 0", "L 0 1 -1e999"])
def test_load_packing_rejects_non_finite_numbers(row):
    # The row's line is named, past a comment and a blank line; a later
    # line's parse error still comes first, as the rows parse before the
    # numbers are checked.
    with pytest.raises(ValueError, match=re.escape(f"line 4: numbers must be finite, got {row!r}")):
        load_packing(f"C 0 0 1\n# c\n\n{row}  # trailing\nL 0 1 2\n")
    with pytest.raises(ValueError, match="line 3: zero radius"):
        load_packing(f"{row}\nC 0 0 1\nC 1 1 0\n")


def hw_gasket_packing(epsilon):
    """The circles of `dfs --preset hw-gasket` at the given epsilon."""
    preset = resources.files("kleinlab").joinpath("presets")
    group = load_marking(preset.joinpath("hw-marking.txt").read_text())
    seeds = load_packing(preset.joinpath("hw-seeds.txt").read_text()).circles
    config = DfsConfig(
        epsilon=epsilon, max_depth=64, seeds=tuple(seeds), window=Rectangle(-1.0, -1.0, 2.0, 2.0)
    )
    return limit_set_dfs(group, config).packing


def test_triangles_match_brute_force():
    graph = detect_tangencies(bounded_gasket(3))
    brute = [
        (i, j, k)
        for i, j, k in itertools.combinations(range(graph.n), 3)
        if graph.has_edge(i, j) and graph.has_edge(i, k) and graph.has_edge(j, k)
    ]
    assert brute
    assert list(graph.triangles()) == brute


def walk_oracle(graph, curvatures):
    """The dict triangle walk and quadruple loop that the columnar verdict
    replaced: (triangles, quadruples checked, worst |residual|, its
    quadruple)."""
    adj = {v: set() for v in range(graph.n)}
    for e in graph.edges:
        adj[e.i].add(e.j)
        adj[e.j].add(e.i)
    triangles = [
        (i, j, k)
        for i in range(graph.n)
        for j in sorted(x for x in adj[i] if x > i)
        for k in sorted(x for x in adj[i] & adj[j] if x > j)
    ]
    worst, worst_quad, quadruples = 0.0, None, 0
    for i, j, k in triangles:
        for l in sorted(x for x in adj[i] & adj[j] & adj[k] if x > k):
            quadruples += 1
            r = descartes_residual(curvatures[i], curvatures[j], curvatures[k], curvatures[l])
            if abs(r) > worst:
                worst, worst_quad = abs(r), (i, j, k, l)
    return triangles, quadruples, worst, worst_quad


def test_verdict_matches_the_walk_oracle():
    rng = random.Random(83)
    gasket = standard_gasket(2)
    packings = [bounded_gasket(3), hw_gasket_packing(1e-2)]
    packings += [apply_to_packing(random_map(rng), gasket) for _ in range(10)]
    # Rounding makes most of these residuals non-zero, and four quadruples
    # (two after normalization) share the largest, so the first-maximum rule
    # decides which one is reported.
    scaled = apply_to_packing(MoebiusMap(1e-3, 0, 0, 1), bounded_gasket(4))
    packings.append(scaled)
    for packing in packings:
        graph = detect_tangencies(packing)
        m = normalize_to_standard_gasket(packing)
        for normalize, curvatures in (
            (False, [c.A for c in packing.circles]),
            (True, [c.transform(m).A for c in packing.circles]),
        ):
            triangles, quadruples, worst, worst_quad = walk_oracle(graph, curvatures)
            verdict = is_apollonian_like(packing, normalize=normalize)
            assert list(graph.triangles()) == triangles
            assert verdict.triangles_checked == len(triangles)
            assert verdict.quadruples_checked == quadruples > 0
            assert (verdict.worst_residual, verdict.worst_quadruple) == (worst, worst_quad)
            assert worst > 0.0 or packing is not scaled


def test_normalized_verdict_matches_two_scan_composition():
    # One scan of the input, carried through normalization, must give the
    # verdict of normalizing first and rescanning the moved packing.
    rng = random.Random(59)
    gasket = standard_gasket(2)
    packings = [apply_to_packing(random_map(rng), gasket) for _ in range(10)]
    packings += [bounded_gasket(3), hw_gasket_packing(1e-2)]
    for packing in packings:
        moved = apply_to_packing(normalize_to_standard_gasket(packing), packing)
        expected = is_apollonian_like(moved)
        assert expected.passed
        assert is_apollonian_like(packing, normalize=True) == expected


def test_normalized_verdict_raises_normalization_errors_first():
    overlapping = CirclePacking(
        [OrientedCircle.from_center_radius(x, 1.0) for x in (0.0, 1.0, 5.0, 9.0)]
    )
    with pytest.raises(OverlappingCirclesError):
        is_apollonian_like(overlapping, normalize=True)
    assert is_apollonian_like(overlapping).overlap_pairs == ((0, 1),)
    chain = CirclePacking(
        [OrientedCircle.from_center_radius(x, 1.0) for x in (0.0, 2.0, 4.0, 6.0)]
    )
    with pytest.raises(NoTangentTripleError):
        is_apollonian_like(chain, normalize=True)
    with pytest.raises(NoTangentTripleError):
        is_apollonian_like(CirclePacking(standard_base_triple()[:2]), normalize=True)
    with pytest.raises(ValueError, match="need at least 4 circles"):
        is_apollonian_like(CirclePacking(standard_base_triple()), normalize=True)


def components(c):
    return (c.A, c.B.real, c.B.imag, c.C)


def one_locus(c1, c2):
    """Whether the summed triple vanishes against the pair's own size, to
    1e-9: a circle and its complement."""
    size = max(abs(x) for x in components(c1) + components(c2))
    return max(abs(x + y) for x, y in zip(components(c1), components(c2))) <= 1e-9 * size


def all_pairs_scan(circles, tol):
    """The tangency scan by brute force: every pair's inversive product.  A
    tangent pair that is one locus overlaps."""
    edges, overlap = [], []
    for i, j in itertools.combinations(range(len(circles)), 2):
        p = circles[i].inversive_product(circles[j])
        if abs(p + 2.0) <= tol and not one_locus(circles[i], circles[j]):
            edges.append((i, j, tangency_point(circles[i], circles[j])))
        elif p > -2.0 or abs(p + 2.0) <= tol:
            overlap.append((i, j))
    return edges, overlap


def assert_scan_matches_all_pairs(circles, tol):
    graph, overlap, _ = _scan_products(CirclePacking(circles), tol)
    edges, expected_overlap = all_pairs_scan(circles, tol)
    assert [(e.i, e.j, e.point) for e in graph.edges] == edges
    assert overlap == expected_overlap
    # The index's products are bit for bit those of inversive_product.
    i, j, p = _cap_candidates(_columns(circles), tol)
    assert p.tolist() == [circles[a].inversive_product(circles[b]) for a, b in zip(i, j)]
    return graph, overlap


def gapped_pair(x, radius, gap):
    """Two circles at height 1/2 whose inversive product is -2 - gap."""
    distance = math.sqrt(4.0 * radius * radius + gap * radius * radius)
    return [
        OrientedCircle.from_center_radius(complex(x, 0.5), radius),
        OrientedCircle.from_center_radius(complex(x + distance, 0.5), radius),
    ]


def test_scan_matches_all_pairs_on_dfs_packing():
    graph, overlap = assert_scan_matches_all_pairs(hw_gasket_packing(1e-2).circles, 1e-6)
    assert len(graph.edges) == 4101
    assert overlap == []


def test_scan_matches_all_pairs_on_distorted_packings():
    rng = random.Random(61)
    packing = hw_gasket_packing(2e-2)
    for _ in range(4):
        graph, _ = assert_scan_matches_all_pairs(
            apply_to_packing(random_map(rng), packing).circles, 1e-6
        )
        assert len(graph.edges) == 1593


@pytest.mark.parametrize("tol", [1e-6, 1e-2])
def test_scan_matches_all_pairs_on_lines_and_gaps(tol):
    # Two lines bounding the strip 0 <= Im z <= 1 with two unit-diameter
    # circles between them, an enclosing circle (whose outside overlaps both
    # lines' half-planes), and two circle pairs inside the strip gapped to
    # inversive products -2 - tol/2 (tangent within tol) and -2 - 2 tol (not).
    circles = [
        OrientedCircle.from_line(1j, 0.0),
        OrientedCircle.from_line(-1j, -1.0),
        OrientedCircle.from_center_radius(0.5j, 0.5),
        OrientedCircle.from_center_radius(1.0 + 0.5j, 0.5),
        OrientedCircle.from_center_radius(0j, 20.0).reversed(),
    ]
    circles += gapped_pair(4.0, 0.25, tol / 2) + gapped_pair(8.0, 0.25, 2 * tol)
    assert circles[5].inversive_product(circles[6]) == pytest.approx(-2 - tol / 2, abs=1e-12)
    assert circles[7].inversive_product(circles[8]) == pytest.approx(-2 - 2 * tol, abs=1e-12)
    graph, overlap = assert_scan_matches_all_pairs(circles, tol)
    # the parallel lines touch at infinity
    strip = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert [(e.i, e.j) for e in graph.edges] == strip + [(5, 6)]
    assert overlap == [(0, 4), (1, 4)]


def test_scan_matches_all_pairs_below_the_finest_level():
    # Circles of radius 1e-9 to 1e-6, finer than the finest grid level,
    # share its cells.
    rng = random.Random(71)
    circles = [OrientedCircle.from_center_radius(0.3 + 0.2j, 0.1)]
    for _ in range(60):
        radius = 10 ** rng.uniform(-9, -6)
        centre = complex(0.3 + rng.uniform(-3e-6, 3e-6), 0.3 + rng.uniform(-3e-6, 3e-6))
        circles.append(OrientedCircle.from_center_radius(centre, radius))
    circles += gapped_pair(0.3, 1e-8, 0.0)
    graph, overlap = assert_scan_matches_all_pairs(circles, 1e-6)
    assert graph.has_edge(61, 62)
    assert overlap


def test_a_circle_listed_with_its_complement_overlaps():
    # The pair's inversive product is exactly -2, yet its summed triple is
    # zero: one locus, with no tangency point.
    unit = OrientedCircle.from_center_radius(0j, 1.0)
    circles = [
        unit,
        unit.reversed(),
        OrientedCircle.from_center_radius(2.0, 1.0),
        OrientedCircle.from_center_radius(5.0, 1.0),
    ]
    assert circles[0].inversive_product(circles[1]) == -2.0
    graph, overlap = assert_scan_matches_all_pairs(circles, 1e-6)
    assert [(e.i, e.j) for e in graph.edges] == [(0, 2)]
    assert overlap == [(0, 1), (1, 2), (1, 3)]
    verdict = is_apollonian_like(CirclePacking(circles))
    assert not verdict.passed
    assert "3 crossing pair(s)" in verdict.failures
    with pytest.raises(OverlappingCirclesError):
        is_apollonian_like(CirclePacking(circles), normalize=True)
    # A complement built by other arithmetic is caught too.
    moved = OrientedCircle.from_center_radius(0.1 + 0.2j, 0.3)
    twin = OrientedCircle(-3.0 * moved.A, -3.0 * moved.B, -3.0 * moved.C)
    assert assert_scan_matches_all_pairs([moved, twin], 1e-6)[1] == [(0, 1)]


def test_overlap_pairs_are_sorted():
    # Three overlapping pairs, listed so that no pair's circles are adjacent.
    xs = (0.0, 9.0, 20.0, 1.0, 21.0, 10.0)
    packing = CirclePacking([OrientedCircle.from_center_radius(x, 1.0) for x in xs])
    expected = ((0, 3), (1, 5), (2, 4))
    assert is_apollonian_like(packing).overlap_pairs == expected
    with pytest.raises(OverlappingCirclesError) as err:
        detect_tangencies(packing)
    assert err.value.pairs == expected
    with pytest.raises(OverlappingCirclesError) as err:
        is_apollonian_like(packing, normalize=True)
    assert err.value.pairs == expected


def test_cap_index_candidates_track_tangencies():
    # The index is output-sensitive: its candidates are at most twice the
    # pairs that touch or overlap (at eps 1e-3: 81,795 tangent pairs).
    packing = hw_gasket_packing(1e-3)
    candidates = len(_cap_candidates(packing.columns, 1e-6)[0])
    graph, overlap, _ = _scan_products(packing, 1e-6)
    print(
        f"\ncap index at eps 1e-3: {candidates} candidate pairs for "
        f"{len(graph.edges)} tangent and {len(overlap)} overlapping pairs"
    )
    assert len(graph.edges) == 81795
    assert candidates <= 2 * (len(graph.edges) + len(overlap))


def test_moved_curvatures_are_transform_curvatures_bit_for_bit():
    # The verdict's bulk pass and apply_to_packing read the one transport
    # table; their triples must be OrientedCircle.transform's exactly, so no
    # copy drifts.
    rng = random.Random(43)
    for packing in (bounded_gasket(3), hw_gasket_packing(2e-2)):
        for _ in range(4):
            m = random_map(rng)
            expected = _columns([c.transform(m) for c in packing.circles])
            assert _moved_curvatures(packing.columns, m).tobytes() == expected[0].tobytes()
            assert apply_to_packing(m, packing).columns.tobytes() == expected.tobytes()


def test_verdict_counts_scan_work():
    verdict = is_apollonian_like(hw_gasket_packing(1e-2))
    assert verdict.passed
    assert (verdict.candidate_pairs, verdict.tangent_pairs) == (4101, 4101)


def test_scan_does_not_depend_on_row_order():
    packing = hw_gasket_packing(1e-2)
    perm = list(range(len(packing)))
    random.Random(67).shuffle(perm)
    shuffled = CirclePacking.from_columns(packing.columns[:, perm])
    assert perm[:4] != [0, 1, 2, 3]
    assert len(_cap_candidates(shuffled.columns, 1e-6)[0]) == len(
        _cap_candidates(packing.columns, 1e-6)[0]
    )
    edges = {(e.i, e.j) for e in _scan_products(packing, 1e-6)[0].edges}
    moved = {
        (min(perm[e.i], perm[e.j]), max(perm[e.i], perm[e.j]))
        for e in _scan_products(shuffled, 1e-6)[0].edges
    }
    assert moved == edges


def split_packing():
    """Two copies of bounded_gasket(3) without its enclosing circle, the
    second moved by z -> z + 10: a packing of two components."""
    inner = bounded_gasket(3).circles[1:]
    move = MoebiusMap(1, 10, 0, 1)
    return CirclePacking(inner + [c.transform(move) for c in inner])


def union_find_connected(n, i, j):
    """Whether the edges (i[k], j[k]) join all n vertices: a union-find."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(i, j):
        parent[find(a)] = find(b)
    return len({find(x) for x in range(n)}) <= 1


def test_label_pass_matches_union_find_on_packings():
    # The enclosing circle's disk is its outside, so it goes too.
    isolated = bounded_gasket(2).circles[1:] + [OrientedCircle.from_center_radius(5 + 5j, 0.5)]
    apart = [OrientedCircle.from_center_radius(3.0 * k, 1.0) for k in range(5)]
    packings = [hw_gasket_packing(1e-2), split_packing(), CirclePacking(isolated), CirclePacking(apart)]
    verdicts = []
    for packing in packings:
        graph = detect_tangencies(packing)
        connected = union_find_connected(graph.n, graph.i.tolist(), graph.j.tolist())
        assert graph.is_connected() is connected
        verdicts.append(connected)
    assert verdicts == [True, False, False, False]
    assert len(graph.i) == 0  # the last packing has no tangencies


def test_edge_table_matches_union_find_and_edge_sets():
    # Random graphs from sparse to dense, and paths through a shuffled
    # order, which take the label pass several rounds.
    rng = random.Random(20261019)
    verdicts = set()
    for trial in range(120):
        n = rng.randint(1, 60)
        pairs = set()
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        if trial % 3 == 0:  # a path through a shuffled order
            order = rng.sample(range(n), n)
            pairs |= {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
        edges = sorted(pairs)
        i = np.array([a for a, _ in edges], dtype=np.int64)
        j = np.array([b for _, b in edges], dtype=np.int64)
        graph = TangencyGraph(CirclePacking.from_columns(np.zeros((4, n))), i, j)
        connected = union_find_connected(n, i.tolist(), j.tolist())
        assert graph.is_connected() is connected
        verdicts.add(connected)
        for a in range(-1, n + 1):
            for b in range(-1, n + 1):
                assert graph.has_edge(a, b) is ((min(a, b), max(a, b)) in pairs)
    assert verdicts == {True, False}


@pytest.mark.parametrize("tol", [4.0, 1e6, math.inf, math.nan, 0.0])
def test_tangency_tolerance_must_lie_below_4(tol):
    # From 4 on, every crossing pair, inversive product in (-2, 2), would
    # pass for tangent, and every pair of a packing would become an edge.
    packing = bounded_gasket(2)
    with pytest.raises(ValueError, match=re.escape("tangency tolerance must lie in (0, 4)")):
        detect_tangencies(packing, tol=tol)
    with pytest.raises(ValueError, match=re.escape("tangency tolerance must lie in (0, 4)")):
        is_apollonian_like(packing, tangency_tol=tol)
    assert len(detect_tangencies(packing, tol=3.99).i) == len(detect_tangencies(packing).i)


def near_pairs_oracle(points, h):
    """Every pair (a, b), a != b, of the rows of points within h, both ways
    round, from a k-d tree."""
    pairs = cKDTree(points).query_pairs(h)
    return pairs | {(b, a) for a, b in pairs}


def straddling_unit_vectors(h, rng):
    """For each axis, unit vectors in pairs, 0.9 h and 1.1 h apart along
    that axis, one on each side of a boundary of the grid of cell side h."""
    out = []
    for axis in range(3):
        for chord in (0.9 * h, 1.1 * h):
            edge = (round(rng.uniform(-0.9, 0.9) / h)) * h
            phi = rng.uniform(0.0, 2.0 * math.pi)
            ring = math.sqrt(1 - edge * edge) * np.array([math.cos(phi), math.sin(phi)])
            u = np.insert(ring, axis, edge)
            t = np.eye(3)[axis] - edge * u
            t /= np.linalg.norm(t)
            a = math.asin(chord / 2)
            pair = [u * math.cos(a) + side * t * math.sin(a) for side in (-1, 1)]
            assert pair[0][axis] < edge < pair[1][axis]
            out += pair
    return out


@pytest.mark.parametrize("h", [3e-2, _FINEST_CELL])
def test_near_pairs_finds_every_pair_closer_than_h(h):
    rng = random.Random(97)
    nrng = np.random.default_rng(97)
    points = nrng.normal(size=(3000, 3))
    # Clusters at the scale of h, so there are close pairs to find.
    points[1000:2000] = points[:1000] + nrng.normal(scale=h, size=(1000, 3))
    points /= np.linalg.norm(points, axis=1)[:, None]
    points = np.concatenate(
        (points, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [0.0, h / 2, math.sqrt(1 - h * h / 4)]],
         straddling_unit_vectors(h, rng))
    )
    expected = near_pairs_oracle(points, h)
    assert len(expected) > 100
    own = np.zeros(len(points), dtype=bool)
    own[::2] = True
    own[-20:] = True
    a, b = _near_pairs(points.T, h, own)
    found = list(zip(a.tolist(), b.tolist()))
    # Each pair comes once, its b side owned, and no close pair is missed.
    assert len(set(found)) == len(found)
    assert own[b].all()
    assert {(x, y) for x, y in expected if own[y]} <= set(found)
    # Every own point is paired with itself.
    assert {x for x, y in found if x == y} == set(np.flatnonzero(own).tolist())
