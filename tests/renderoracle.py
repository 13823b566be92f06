"""The per-pixel renderer that `kleinlab.limitset.render` replaced, kept as
the oracle for its bulk passes.

``render_oracle(circles, in_cloud, window, resolution, comment)`` takes a
list of ``OrientedCircle``s and one boolean per circle, which marks the
circles whose centres are cloud points.  It plots every outline sample,
line sample and cloud point through one Python ``plot`` call, in input
order, and returns the ``RenderResult``.
"""

import math

from kleinlab.limitset import RenderResult


def render_oracle(circles, in_cloud, window, resolution, comment=None):
    width = int(resolution)
    xspan = window.x1 - window.x0
    yspan = window.y1 - window.y0
    height = max(1, round(width * yspan / xspan))
    scale = width / xspan

    def to_px(z):
        return ((z.real - window.x0) * scale, (window.y1 - z.imag) * scale)

    raster = bytearray(b"\xff" * (width * height * 3))

    def plot(xf, yf, rgb):
        x = int(xf)
        y = int(yf)
        if 0 <= x < width and 0 <= y < height:
            i = (y * width + x) * 3
            raster[i] = rgb[0]
            raster[i + 1] = rgb[1]
            raster[i + 2] = rgb[2]

    svg_parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    if comment is not None:
        svg_parts.insert(0, "<!-- " + comment.replace("--", "- -") + " -->")
    svg_parts.append(f'<rect width="{width}" height="{height}" fill="#ffffff"/>')

    black = (0, 0, 0)
    for c in circles:
        if c.is_line:
            n, d = c.line_geometry()
            p0 = n * d
            direction = n * 1j
            ts = []
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
                continue
            t_lo, t_hi = min(ts), max(ts)
            x0, y0 = to_px(p0 + t_lo * direction)
            x1, y1 = to_px(p0 + t_hi * direction)
            steps = 2 * max(width, height)
            for s in range(steps + 1):
                f = s / steps
                plot(x0 + f * (x1 - x0), y0 + f * (y1 - y0), black)
            svg_parts.append(
                f'<line x1="{x0:.4f}" y1="{y0:.4f}" x2="{x1:.4f}" y2="{y1:.4f}" '
                f'stroke="#000000" stroke-width="1"/>'
            )
        else:
            cx, cy = to_px(c.center)
            rpx = c.radius * scale
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
    for c, dot in zip(circles, in_cloud):
        if dot and not c.is_line and window.contains(c.center):
            x, y = to_px(c.center)
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
