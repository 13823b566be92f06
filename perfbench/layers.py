"""Which kleinlab functions the traced run wraps, and the per-layer metrics
read back from the spans.

The layers are the package's modules: cli, limitset, gasket, groups, mobius
and decomposition.  `kleinlab.cli` binds its imports by name, so each
function is wrapped both where it is defined and in `kleinlab.cli`.
Time metrics ending in `_s` are inclusive of the wrapped call; those ending
in `self_s` exclude the time of wrapped calls made inside it.
"""

from __future__ import annotations

import re

# Operation labels; every workload runs four timed operations per iteration.
OPS = ("op1", "op2", "op3", "op4")

# metric -> (span name, "seconds" | "self" | "calls")
SPAN_METRICS = {
    "limitset.dfs_s": ("limitset.dfs", "seconds"),
    "limitset.cloud_add_s": ("limitset.cloud_add", "seconds"),
    "limitset.cloud_add_calls": ("limitset.cloud_add", "calls"),
    "limitset.render_s": ("limitset.render", "seconds"),
    "limitset.fixed_points_s": ("limitset.fixed_points", "seconds"),
    "gasket.dump_s": ("gasket.dump", "seconds"),
    "gasket.load_s": ("gasket.load", "seconds"),
    "gasket.detect_tangencies_s": ("gasket.detect_tangencies", "seconds"),
    "gasket.normalize_self_s": ("gasket.normalize", "self"),
    "gasket.apply_s": ("gasket.apply", "seconds"),
    "gasket.verdict_s": ("gasket.verdict", "seconds"),
    "cli.self_s": ("cli.main", "self"),
    "mobius.compose_s": ("mobius.compose", "seconds"),
    "mobius.compose_calls": ("mobius.compose", "calls"),
    "groups.solve_s": ("groups.solve", "seconds"),
    "groups.load_marking_s": ("groups.load_marking", "seconds"),
    "decomposition.load_s": ("decomposition.load", "seconds"),
    "decomposition.metric_space_s": ("decomposition.metric_space", "seconds"),
    "decomposition.tree_limit_s": ("decomposition.tree_limit", "seconds"),
    "decomposition.cut_pairs_s": ("decomposition.cut_pairs", "seconds"),
    "decomposition.valency_s": ("decomposition.valency", "seconds"),
}

# Counters recorded from return values (and, for cli.bytes_written, from
# the sizes of the files an operation wrote).
COUNT_METRICS = (
    "limitset.words_visited",
    "limitset.branches_pruned",
    "limitset.circles_emitted",
    "limitset.depth_exhausted",
    "limitset.cloud_points",
    "gasket.tangent_pairs",
    "gasket.triangles_checked",
    "gasket.quadruples_checked",
    "decomposition.cut_pairs_found",
    "decomposition.quotient_points",
    "cli.bytes_written",
)

DERIVED_METRICS = (
    "limitset.emit_ratio",   # circles emitted / words visited
    "limitset.words_per_s",  # words visited / limitset.dfs_s
    "gasket.scans",          # full tangency scans per verify-gasket run
)

# Read once per traced run, outside the iterations.
RUN_METRICS = ("cli.import_s", "cli.import_scipy_s", "trace.overhead_s")

# Metrics also reported per operation: the dfs stages and the verify stages.
PER_OP = (
    "limitset.dfs_s",
    "limitset.words_visited",
    "limitset.circles_emitted",
    "limitset.cloud_points",
    "limitset.cloud_add_s",
    "limitset.render_s",
    "gasket.dump_s",
    "cli.self_s",
    "cli.bytes_written",
    "gasket.load_s",
    "gasket.detect_tangencies_s",
    "gasket.normalize_self_s",
    "gasket.apply_s",
    "gasket.verdict_s",
    "gasket.scans",
    "gasket.tangent_pairs",
    "gasket.triangles_checked",
    "gasket.quadruples_checked",
)


def metric_names() -> list[str]:
    names = list(SPAN_METRICS) + list(COUNT_METRICS) + list(DERIVED_METRICS) + list(RUN_METRICS)
    names += [f"{m}.{op}" for m in PER_OP for op in OPS]
    return names


def unit(name: str) -> str:
    base = name.rsplit(".", 1)[0] if name.endswith(OPS) else name
    if base.endswith("per_s"):
        return "1/s"
    if base.endswith("_s"):
        return "s"
    if base == "cli.bytes_written":
        return "bytes"
    if base == "limitset.emit_ratio":
        return "ratio"
    return "count"


# -- wrapping --------------------------------------------------------------------

def _dfs_counts(tracer, result) -> None:
    stats = result.stats
    tracer.count("limitset.words_visited", stats.words_visited)
    tracer.count("limitset.branches_pruned", stats.branches_pruned)
    tracer.count("limitset.circles_emitted", stats.circles_emitted)
    tracer.count("limitset.depth_exhausted", stats.depth_exhausted_branches)


def _cloud_added(tracer, added) -> None:
    if added:
        tracer.count("limitset.cloud_points")


def _verdict_counts(tracer, verdict) -> None:
    tracer.count("gasket.triangles_checked", verdict.triangles_checked)
    tracer.count("gasket.quadruples_checked", verdict.quadruples_checked)


def instrument(tracer) -> None:
    """Wrap the public functions of every kleinlab module in spans."""
    from kleinlab import cli, decomposition, gasket, groups, limitset, mobius

    def both(module, attr, name, **kw):
        tracer.wrap([module, cli], attr, name, **kw)

    tracer.wrap([cli], "main", "cli.main")
    both(limitset, "limit_set_dfs", "limitset.dfs", on_result=_dfs_counts)
    both(limitset, "render", "limitset.render")
    both(limitset, "limit_points_by_fixed_points", "limitset.fixed_points")
    tracer.wrap([limitset.LimitSetCloud], "try_add", "limitset.cloud_add", leaf=True,
                on_result=_cloud_added)
    both(gasket, "dump_packing", "gasket.dump", leaf=True)
    both(gasket, "load_packing", "gasket.load")
    tracer.wrap([gasket], "detect_tangencies", "gasket.detect_tangencies",
                on_result=lambda t, g: t.count("gasket.tangent_pairs", len(g.edges)))
    both(gasket, "normalize_to_standard_gasket", "gasket.normalize")
    both(gasket, "apply_to_packing", "gasket.apply")
    both(gasket, "is_apollonian_like", "gasket.verdict", on_result=_verdict_counts)
    # The one private hook: a full pairwise tangency scan.  gasket.scans
    # reads 0 once no function of that name is left to wrap.
    if hasattr(gasket, "_scan_products"):
        tracer.wrap([gasket], "_scan_products", "gasket.scan")
    both(groups, "solve_parabolic_commutator", "groups.solve")
    both(groups, "load_marking", "groups.load_marking")
    for attr in ("compose", "__mul__"):
        tracer.wrap([mobius.MoebiusMap], attr, "mobius.compose", leaf=True)
    for attr in ("load_tree_system", "load_simple_graph", "load_graph_of_groups"):
        both(decomposition, attr, "decomposition.load")
    tracer.wrap([decomposition.FiniteMetricSpace], "__init__", "decomposition.metric_space")
    both(decomposition, "tree_system_limit", "decomposition.tree_limit",
         on_result=lambda t, s: t.count("decomposition.quotient_points", len(s.points)))
    both(decomposition, "cut_pairs", "decomposition.cut_pairs",
         on_result=lambda t, pairs: t.count("decomposition.cut_pairs_found", len(pairs)))
    for attr in ("link_valency", "local_cut_valency"):
        both(decomposition, attr, "decomposition.valency", leaf=True)


# -- reading -------------------------------------------------------------------------

def _values(tracer, op: str | None) -> dict[str, float]:
    totals = tracer.totals(op)
    counts = tracer.counted(op)
    out: dict[str, float] = {}
    for metric, (span, field) in SPAN_METRICS.items():
        out[metric] = totals[span][field] if span in totals else 0.0
    for metric in COUNT_METRICS:
        out[metric] = counts.get(metric, 0)
    visited = out["limitset.words_visited"]
    out["limitset.emit_ratio"] = out["limitset.circles_emitted"] / visited if visited else 0.0
    dfs_s = out["limitset.dfs_s"]
    out["limitset.words_per_s"] = visited / dfs_s if dfs_s else 0.0
    verifies = totals["gasket.verdict"]["calls"] if "gasket.verdict" in totals else 0
    scans = totals["gasket.scan"]["calls"] if "gasket.scan" in totals else 0
    out["gasket.scans"] = scans / verifies if verifies else 0
    return out


def iteration_metrics(tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (the tracer holds only it)."""
    out = _values(tracer, None)
    for op in OPS:
        per_op = _values(tracer, op)
        for metric in PER_OP:
            out[f"{metric}.{op}"] = per_op[metric]
    return out


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_times(stderr: str) -> tuple[float, float]:
    """(seconds to import kleinlab.cli, seconds spent importing scipy) from
    the `-X importtime` report of `python -c "import kleinlab.cli"`.  A
    scipy import counts once, at the outermost scipy module of its chain."""
    total = scipy = 0.0
    chain: list[tuple[int, str]] = []  # (indent, module) of enclosing imports
    rows = []
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            rows.append((int(m.group(2)), len(m.group(3)), m.group(4)))
    # The report lists a module after everything it imported, so walk it
    # backwards to see each parent before its children.
    for cumulative, indent, module in reversed(rows):
        while chain and chain[-1][0] >= indent:
            chain.pop()
        is_scipy = module == "scipy" or module.startswith("scipy.")
        if is_scipy and not any(p == "scipy" or p.startswith("scipy.") for _, p in chain):
            scipy += cumulative / 1e6
        if module == "kleinlab.cli":
            total = cumulative / 1e6
        chain.append((indent, module))
    return total, scipy
