"""Hausdorff distance between limit-set clouds, for the convergence tests.

``hausdorff_distance(a, b, window)`` is the symmetric Hausdorff distance
between the finite points of two ``LimitSetCloud``s that lie in the
rectangle ``window``, in the plane metric.  It raises ``ValueError`` when
either cloud has no finite point there.
"""

import numpy as np
from scipy.spatial import cKDTree


def _in_window(cloud, window):
    x, y = cloud.z.real, cloud.z.imag  # infinity is inf + inf j, outside
    inside = (window.x0 <= x) & (x <= window.x1) & (window.y0 <= y) & (y <= window.y1)
    return np.column_stack((x[inside], y[inside]))


def hausdorff_distance(a, b, window):
    pa, pb = _in_window(a, window), _in_window(b, window)
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError("a cloud has no finite points in the window")
    da = cKDTree(pb).query(pa)[0].max()
    db = cKDTree(pa).query(pb)[0].max()
    return float(max(da, db))
