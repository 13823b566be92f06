import hashlib
import json
import subprocess
import sys

import pytest

from kleinlab.gasket import (
    CirclePacking,
    OrientedCircle,
    apply_to_packing,
    bounded_gasket,
    dump_packing,
)
from kleinlab.mobius import MoebiusMap

from childenv import child_env

ARTIFACT_SUFFIXES = (".circles.txt", ".cloud.txt", ".ppm", ".svg", ".stats.json")


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "kleinlab.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=child_env(),
        timeout=300,
    )


def test_cli_import_leaves_numpy_and_scipy_unloaded():
    # No subcommand needs numpy or scipy, so starting the CLI must not pay
    # for importing them; only hausdorff_distance loads them, on first call.
    code = "import sys, kleinlab.cli; print([m for m in ('numpy', 'scipy') if m in sys.modules])"
    r = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=300
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_version_flag():
    r = run_cli("--version")
    assert r.returncode == 0
    assert r.stdout.strip().startswith("kleinlab ")


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate").returncode == 2


def test_solve_prints_marking_and_constants():
    r = run_cli("solve")
    assert r.returncode == 0
    assert "c = 0.000000000+2.000000000i" in r.stdout
    assert "commutator trace = -2.000000000+0.000000000i" in r.stdout
    assert "commutator trace^2 = 4.000000000+0.000000000i" in r.stdout
    assert "commutator fixed point = -0.500000000+0.500000000i" in r.stdout


def test_points_writes_cloud_artifact(tmp_path):
    out = tmp_path / "cloud.txt"
    r = run_cli("points", "--depth", "4", "--out", str(out))
    assert r.returncode == 0
    assert "122 limit points at depth 4" in r.stdout
    lines = out.read_text().splitlines()
    header = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert any("config:" in l for l in header)
    assert len(body) == 122
    assert body[0].split() == ["inf", "inf", "1", "a"]


def test_points_without_out_prints_to_stdout():
    r = run_cli("points", "--depth", "2")
    assert r.returncode == 0
    body = [l for l in r.stdout.splitlines() if l and not l.startswith("#")]
    # 10 cloud rows plus the count line
    assert len(body) == 11


def dfs_args(extra=()):
    return (
        "dfs",
        "--epsilon", "0.05",
        "--depth", "20",
        "--window=-1,-1,2,1",
        "--out", "run",
        *extra,
    )


def test_dfs_writes_five_deterministic_artifacts(tmp_path):
    d1 = tmp_path / "one"
    d2 = tmp_path / "two"
    d1.mkdir()
    d2.mkdir()
    for d in (d1, d2):
        r = run_cli(*dfs_args(), cwd=d)
        assert r.returncode == 0
        for suffix in ARTIFACT_SUFFIXES:
            assert (d / f"run{suffix}").exists()
        assert "wall time" in r.stdout
    for suffix in ARTIFACT_SUFFIXES:
        b1 = (d1 / f"run{suffix}").read_bytes()
        b2 = (d2 / f"run{suffix}").read_bytes()
        assert b1 == b2, f"artifact {suffix} differs between identical runs"


# sha256 of the hw-gasket artifacts at eps 1e-2, from the per-circle DFS
# (window test and cloud dedup inside the traversal) that the bulk passes
# replaced.  The PPM is left out: its samples go through libm cos and sin.
GOLDEN_DFS_1E2 = {
    ".circles.txt": "2da15fceb6dccda6b7d210d389cae3a529a06bb3567c611a8ac3a04349f0cdd7",
    ".cloud.txt": "8c8064b7a1205ddee1ace63054b2e1ebc0bbd1afda179dfdc4e83113fae78fc7",
    ".svg": "04e83b8649fe7064816c885ef65e6581addbfe2b8b48fa57d1b32a5cf4b2b2d8",
    ".stats.json": "f071698317624b8479a3b24f3d7b8bfbd0dcdda04550d28f6f0019f412ee1ef3",
}


def test_dfs_artifacts_match_golden_digests(tmp_path):
    r = run_cli("dfs", "--preset", "hw-gasket", "--epsilon", "1e-2", "--out", "run", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    for suffix, digest in GOLDEN_DFS_1E2.items():
        data = (tmp_path / f"run{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"run{suffix} changed"


# sha256 of the body rows of `points --depth 8`, from the per-point cloud
# dedup that LimitSetCloud.extend replaced.  The `#` header is left out:
# it records the --out path.
GOLDEN_POINTS_DEPTH8 = "0974a0a5297fb8972910614470a4ee7c16d1f130dc1c4610993a1542f05959e6"


def test_points_rows_match_golden_digest(tmp_path):
    r = run_cli("points", "--depth", "8", "--out", "pts", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    lines = (tmp_path / "pts").read_bytes().splitlines(keepends=True)
    rows = [line for line in lines if not line.startswith(b"#")]
    assert len(rows) == 12570
    assert hashlib.sha256(b"".join(rows)).hexdigest() == GOLDEN_POINTS_DEPTH8


def test_dfs_stats_content(tmp_path):
    r = run_cli(*dfs_args(), cwd=tmp_path)
    assert r.returncode == 0
    doc = json.loads((tmp_path / "run.stats.json").read_text())
    assert doc["config"]["epsilon"] == "0.05"
    assert doc["config"]["depth"] == "20"
    stats = doc["stats"]
    assert stats["circles_emitted"] > 100
    assert stats["words_visited"] >= stats["circles_emitted"]
    assert "wall_time" not in stats
    circles = (tmp_path / "run.circles.txt").read_text()
    body = [l for l in circles.splitlines() if not l.startswith("#")]
    assert len(body) == stats["circles_emitted"]


def test_dfs_requires_out_and_window(tmp_path):
    r = run_cli("dfs", "--window=-1,-1,2,1", cwd=tmp_path)
    assert r.returncode == 2
    assert "out" in r.stderr
    r = run_cli("dfs", "--out", "run", cwd=tmp_path)
    assert r.returncode == 2
    assert "window" in r.stderr


def test_verify_gasket_passes_bounded_truncation(tmp_path):
    packing_file = tmp_path / "gasket.txt"
    packing_file.write_text(dump_packing(bounded_gasket(2)))
    r = run_cli("verify-gasket", str(packing_file))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["passed"] is True
    assert doc["connected"] is True
    assert doc["worst_residual"] <= 1e-7
    assert doc["circles"] == len(bounded_gasket(2).circles)
    assert (doc["candidate_pairs"], doc["tangent_pairs"]) == (54, 54)


def test_verify_gasket_fails_on_perturbed_packing(tmp_path):
    circles = list(bounded_gasket(2).circles)
    circles[3] = OrientedCircle.from_center_radius(
        circles[3].center, circles[3].radius * 1.05
    )
    packing_file = tmp_path / "bad.txt"
    packing_file.write_text(dump_packing(CirclePacking(circles)))
    r = run_cli("verify-gasket", str(packing_file), "--tol", "0.2")
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["passed"] is False
    assert doc["failures"]


def test_verify_gasket_normalize_roundtrip(tmp_path):
    distorted = apply_to_packing(
        MoebiusMap(1, 0.3 + 0.1j, 0, 1), bounded_gasket(2)
    )
    packing_file = tmp_path / "moved.txt"
    packing_file.write_text(dump_packing(distorted))
    r = run_cli("verify-gasket", str(packing_file), "--normalize")
    assert r.returncode == 0
    assert json.loads(r.stdout)["passed"] is True


def test_verify_gasket_missing_file_is_input_error(tmp_path):
    r = run_cli("verify-gasket", str(tmp_path / "nope.txt"))
    assert r.returncode == 2


OVERLAPPING = "C 0 0 1\nC 1 0 1\nC 5 0 1\nC 9 0 1\n"
CHAIN = "C 0 0 1\nC 2 0 1\nC 4 0 1\nC 6 0 1\n"


def test_verify_gasket_normalize_rejects_overlap(tmp_path):
    packing_file = tmp_path / "overlap.txt"
    packing_file.write_text(OVERLAPPING)
    r = run_cli("verify-gasket", str(packing_file), "--normalize")
    assert r.returncode == 2
    assert "overlapping circle pairs" in r.stderr
    assert r.stdout == ""


def test_verify_gasket_normalize_needs_a_triangle(tmp_path):
    packing_file = tmp_path / "chain.txt"
    packing_file.write_text(CHAIN)
    r = run_cli("verify-gasket", str(packing_file), "--normalize")
    assert r.returncode == 2
    assert "no mutually tangent triple" in r.stderr
    assert r.stdout == ""


def test_verify_gasket_reports_overlap_without_normalize(tmp_path):
    packing_file = tmp_path / "overlap.txt"
    packing_file.write_text(OVERLAPPING)
    r = run_cli("verify-gasket", str(packing_file))
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["passed"] is False
    assert doc["overlap_pairs"] == [[0, 1]]


def test_validate_gog_bundled_example():
    r = run_cli("validate-gog", "abc-example")
    assert r.returncode == 0
    assert "vertices: 7  edges: 6  tree: yes" in r.stdout
    assert "pass" in r.stdout.splitlines()


def test_validate_gog_reports_failing_clause(tmp_path):
    bad = tmp_path / "bad.gog"
    bad.write_text(
        "vertex R rigid\n"
        "vertex T two-ended\n"
        "vertex H hanging-fuchsian slots=1\n"
        "edge R T twoended=false\n"
        "edge T H slot=1\n"
    )
    r = run_cli("validate-gog", str(bad))
    assert r.returncode == 1
    assert "fail clause (i)" in r.stdout


def test_tree_limit_of_two_segments(tmp_path):
    ts = tmp_path / "ts.txt"
    ts.write_text(
        "space A 2\nrow 0 1\nrow 1 0\n"
        "space B 2\nrow 0 2\nrow 2 0\n"
        "tree-edge A B\nglue A B 1 0\n"
    )
    r = run_cli("tree-limit", str(ts))
    assert r.returncode == 0
    body = [l for l in r.stdout.splitlines() if not l.startswith("#")]
    assert "points A:0 A:1 B:1" in body
    assert "row 0 1 3" in body
    assert "3 quotient points" in r.stdout


def test_cuts_report_on_square(tmp_path):
    graph = tmp_path / "c4.txt"
    graph.write_text("a b\nb c\nc d\nd a\n")
    r = run_cli("cuts", str(graph))
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "vertex a local_cut_valency=1 link_valency=2" in lines
    assert "cut-pair a c components=2 flagged=true" in lines
    assert "cut-pair b d components=2 flagged=true" in lines
    assert sum(1 for l in lines if l.startswith("cut-pair")) == 2


def test_bench_is_an_unknown_command():
    # The benchmark lives in perfbench/, not in the CLI.
    r = run_cli("bench", "--depth", "6")
    assert r.returncode == 2
    assert "invalid choice" in r.stderr


def test_config_file_applies_and_flags_override(tmp_path):
    cfg = tmp_path / "my.cfg"
    cfg.write_text("epsilon=0.4\ndepth=9\n")
    r = run_cli(
        "dfs", "--config", str(cfg), "--depth", "12",
        "--window=-1,-1,2,1", "--out", "run",
        cwd=tmp_path,
    )
    assert r.returncode == 0
    doc = json.loads((tmp_path / "run.stats.json").read_text())
    assert doc["config"]["epsilon"] == "0.4"  # from file
    assert doc["config"]["depth"] == "12"  # flag wins


def test_preset_supplies_defaults(tmp_path):
    r = run_cli(
        "dfs", "--preset", "hw-gasket", "--epsilon", "0.2",
        "--depth", "12", "--window=-1,-1,2,1", "--out", "run",
        cwd=tmp_path,
    )
    assert r.returncode == 0
    doc = json.loads((tmp_path / "run.stats.json").read_text())
    assert doc["config"]["resolution"] == "800"
    assert doc["config"]["marking"] == "preset:hw-marking"
    assert doc["config"]["epsilon"] == "0.2"


def test_unknown_preset_is_usage_error():
    assert run_cli("solve", "--preset", "nope").returncode == 2


def test_config_errors_exit_2(tmp_path):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("epsilonn=0.1\n")
    r = run_cli("points", "--config", str(bad_key))
    assert r.returncode == 2
    assert "unknown key" in r.stderr

    bad_value = tmp_path / "bad2.cfg"
    bad_value.write_text("epsilon=0\n")
    r = run_cli("points", "--config", str(bad_value))
    assert r.returncode == 2
    assert "positive" in r.stderr

    r = run_cli("points", "--depth", "0")
    assert r.returncode == 2
