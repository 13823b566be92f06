"""The subdivided tangency graph of a bounded Apollonian gasket, for the
cut-pair tests.

Circle i of ``bounded_gasket(generations)`` becomes vertex ``c{i}``, and the
tangency of circles i < j becomes a degree-2 vertex ``t{i}_{j}`` joined to
both.  The edge list is sorted, so it depends on which circles touch, not on
the order in which ``detect_tangencies`` reports them.
"""

from kleinlab.gasket import bounded_gasket, detect_tangencies


def subdivided_gasket_edges(generations):
    edges = []
    for e in detect_tangencies(bounded_gasket(generations)).edges:
        i, j = sorted((e.i, e.j))
        t = f"t{i}_{j}"
        edges += [(f"c{i}", t), (t, f"c{j}")]
    return sorted(edges)
