"""Tests of the benchmark's own inputs, oracles and span arithmetic.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import DFS_REFERENCE  # noqa: E402

from kleinlab import cli  # noqa: E402
from kleinlab.decomposition import load_tree_system, tree_system_limit  # noqa: E402
from kleinlab.gasket import load_packing, normalize_to_standard_gasket  # noqa: E402


def dfs_stats(tmp_path, seed, eps):
    seeds = tmp_path / f"seeds-{seed}.txt"
    seeds.write_text(inputs.hw_seeds_text(seed))
    stem = tmp_path / f"dfs-{seed}-{eps}"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["dfs", "--preset", "hw-gasket", "--epsilon", eps,
                       "--seeds", str(seeds), "--out", str(stem)])
    assert rc == 0
    return stem, json.loads(Path(str(stem) + ".stats.json").read_text())["stats"]


@pytest.mark.parametrize("make", [
    inputs.hw_seeds_text,
    inputs.tree_system_text,
    lambda seed: inputs.gasket_graph_text(seed)[0],
])
def test_same_seed_gives_same_bytes(make):
    assert make(7) == make(7)
    assert len({make(seed) for seed in range(8)}) > 1


def test_seeds_only_permute_the_preset_rows():
    rows = sorted(inputs.hw_seeds_text(0).splitlines()[1:])
    for seed in range(1, 6):
        assert sorted(inputs.hw_seeds_text(seed).splitlines()[1:]) == rows


def test_tree_system_matches_oracle_and_keeps_its_size():
    sizes = set()
    for seed in (0, 1):
        text = inputs.tree_system_text(seed)
        limit = tree_system_limit(load_tree_system(text))
        points, matrix = inputs.tree_limit_oracle(text)
        assert list(limit.points) == points
        assert limit.matrix() == matrix
        sizes.add(len(points))
    assert len(sizes) == 1


def test_gasket_graph_relabelling_keeps_the_graph():
    a, sub_a = inputs.gasket_graph_text(1)
    b, sub_b = inputs.gasket_graph_text(2)
    assert len(sub_a) == len(sub_b) == 54
    vertices = lambda text: {v for line in text.splitlines()[1:] for v in line.split()}
    assert len(vertices(a)) == len(vertices(b)) == 74


@pytest.mark.parametrize("eps", ["1e-2", "1e-3"])
def test_circle_counts_do_not_change_across_seed_permutations(tmp_path, eps):
    for seed in range(4):
        _, stats = dfs_stats(tmp_path, seed, eps)
        assert (stats["circles_emitted"], stats["cloud_points"]) == DFS_REFERENCE[eps]


def test_3e4_count_depends_on_which_seed_circle_comes_first(tmp_path):
    # At 3e-4, below the ladder, the depth cap (64) cuts branches near the
    # parabolic cusps, and which of two mirror-image sets it cuts depends on
    # whether `C -0.5 0 0.5` (seed 0) or `C 0.5 0 0.5` (seed 1) comes first.
    counts = []
    for seed in (0, 1):
        _, stats = dfs_stats(tmp_path, seed, "3e-4")
        counts.append((stats["circles_emitted"], stats["cloud_points"]))
    assert counts == [(131336, 131335), (131334, 131333)]


def test_shuffled_packing_keeps_rows_and_normalization(tmp_path):
    stem, _ = dfs_stats(tmp_path, 0, "1e-2")
    text = Path(str(stem) + ".circles.txt").read_text()
    maps = []
    for seed in (3, 4):
        shuffled = inputs.shuffled_packing_text(text, seed)
        assert shuffled == inputs.shuffled_packing_text(text, seed)
        assert sorted(shuffled.splitlines()[1:]) == sorted(
            line for line in text.splitlines() if not line.startswith("#"))
        maps.append(normalize_to_standard_gasket(load_packing(shuffled)).matrix)
    assert maps[0] == maps[1]


def test_self_time_subtracts_children_and_leaves():
    tracer = Tracer()
    outer = tracer._open("outer")
    inner = tracer._open("inner")
    tracer._close(inner)
    tracer._leaf("leaf", 0.25)
    tracer._close(outer)
    inner["start"], inner["end"] = 1.0, 2.0
    outer["start"], outer["end"] = 0.0, 4.0
    totals = tracer.totals()
    assert totals["outer"]["self"] == pytest.approx(2.75)
    assert totals["inner"]["self"] == pytest.approx(1.0)
    assert totals["leaf"]["calls"] == 1


def test_wrap_reaches_names_bound_by_import():
    import kleinlab.cli
    import kleinlab.limitset

    original = kleinlab.limitset.limit_set_dfs
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        assert kleinlab.cli.limit_set_dfs is kleinlab.limitset.limit_set_dfs
        assert kleinlab.cli.limit_set_dfs is not original
    finally:
        tracer.unwrap_all()
    assert kleinlab.cli.limit_set_dfs is original


def test_traced_child_spans_merge_under_the_open_span(tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(HERE.parents[1] / "src"))
    proc = subprocess.run([sys.executable, str(HERE.parent / "child.py"), str(spans), "solve"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    tracer = Tracer()
    tracer.op = "op1"
    with tracer.span("op.startup_s"):
        tracer.merge(json.loads(spans.read_text()))
    totals = tracer.totals("op1")
    assert totals["cli.main"]["calls"] == totals["groups.solve"]["calls"] == 1
    assert totals["op.startup_s"]["self"] <= totals["op.startup_s"]["seconds"] - totals["cli.main"]["seconds"] + 1e-9


def test_import_time_report_parsing():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:        50 |        400 |   scipy.spatial",
        "import time:        10 |        900 |   kleinlab.limitset",
        "import time:        20 |       1000 | kleinlab",
        "import time:        30 |       1100 | kleinlab.cli",
    ])
    total, scipy = layers.import_times(report)
    assert total == pytest.approx(1100e-6)
    assert scipy == pytest.approx(400e-6)
