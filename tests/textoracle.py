"""The per-row `%` writers that the bulk formatter of the `dfs` and `points`
text artifacts replaced, kept as the oracle for it.

Each function returns what its artifact held before the bulk formatter: one
`%` per row, each number "%.17g" or "%.4f" as Python's own formatting gives
it.  They share no code with `kleinlab.gasket._fields` or `_join_rows`.
"""

from kleinlab.gasket import _line_geometry


def packing_rows(packing):
    """dump_packing's rows and the centres as 'x y' in %.17g, 'inf inf'
    for a line."""
    z = packing.centres
    xy = list(map("%.17g %.17g".__mod__, zip(z.real.tolist(), z.imag.tolist())))
    radius = [1.0 / A if A else 0.0 for A in packing.columns[0].tolist()]
    rows = list(map("C %s %.17g".__mod__, zip(xy, radius)))
    for k, line in enumerate(packing.lines.tolist()):
        if line:
            _, Bre, Bim, C = packing.columns[:, k].tolist()
            n, d = _line_geometry(complex(Bre, Bim), C)
            rows[k] = "L %.17g %.17g %.17g" % (n.real, n.imag, d)
    return xy, rows


def cloud_rows(xy, words):
    """One 'x y word_length word' line per cloud point."""
    return "".join(map("%s %d %s\n".__mod__, zip(xy, map(len, words), [w or "-" for w in words])))


def circles_body(result):
    """The body of `dfs`'s circles.txt."""
    _, rows = packing_rows(result.packing)
    flags = ["  depth-exhausted" if f else "" for f in result.depth_exhausted]
    marks = [w or "-" for w in result.words]
    return "".join(map("%s  # w=%s%s\n".__mod__, zip(rows, marks, flags))) or "\n"


def cloud_body(result):
    """The body of `dfs`'s cloud.txt: the centres and words in_cloud keeps."""
    xy, _ = packing_rows(result.packing)
    kept = [k for k, keep in enumerate(result.in_cloud) if keep]
    return cloud_rows([xy[k] for k in kept], [result.words[k] for k in kept]) or "\n"


def points_body(cloud):
    """The body of `points`."""
    xy = map("%.17g %.17g".__mod__, zip(cloud.z.real.tolist(), cloud.z.imag.tolist()))
    return cloud_rows(xy, cloud.words) or "\n"


def svg_blocks(head, cx, cy, rpx, line_elements, dots):
    """limitset._svg_blocks as it was, in one block."""
    circle = '<circle cx="%s" cy="%s" r="%.4f" fill="none" stroke="#000000" stroke-width="1"/>\n'
    rect = '<rect x="%s" y="%s" width="1" height="1" fill="#c80000"/>\n'
    xs, ys = (list(map("%.4f".__mod__, v.tolist())) for v in (cx, cy))
    elements = list(map(circle.__mod__, zip(xs, ys, rpx.tolist())))
    for k, text in line_elements.items():
        elements[k] = text
    squares = [rect % xy for xy, keep in zip(zip(xs, ys), dots.tolist()) if keep]
    yield "".join([head, *elements, *squares, "</svg>\n"]).encode()
