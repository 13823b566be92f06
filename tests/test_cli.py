import ast
import collections
import hashlib
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from kleinlab import cli, decomposition, gasket, limitset, mobius
from kleinlab.gasket import (
    CirclePacking,
    OrientedCircle,
    TangencyEdge,
    apply_to_packing,
    bounded_gasket,
    dump_packing,
    load_packing,
)
from kleinlab.groups import load_marking
from kleinlab.limitset import DfsConfig, LimitSetCloud, Rectangle, limit_points_by_fixed_points, limit_set_dfs
from kleinlab.mobius import INFINITY, MoebiusMap

from childenv import child_env
from gasketgraph import subdivided_gasket_edges
from randommap import random_map
import textoracle

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


# Child-process code that prints, as its last stderr line, the kleinlab
# modules (without the package prefix) and numpy, scipy, dataclasses or
# inspect if loaded; a module blocked by a None entry is not loaded.
LOADED_MODULES = (
    "print(sorted(m.removeprefix('kleinlab.') for m, mod in sys.modules.items() "
    "if mod and (m.startswith('kleinlab.') "
    "or m in ('numpy', 'scipy', 'dataclasses', 'inspect'))), file=sys.stderr)"
)
# What every command loads: the front end and what `load_config` reads with.
CLI_MODULES = ["cli", "groups", "mobius"]
# Start-up costs the numpy-free commands do without; a command that loads
# numpy may load them too.
DATACLASS_MODULES = ("dataclasses", "inspect")


def test_cli_import_leaves_numpy_and_scipy_unloaded():
    # Starting the CLI must not pay for numpy, for dataclasses (and the
    # inspect it imports), or for the library modules no command shares:
    # each command imports its own when it runs.  No command needs scipy.
    r = subprocess.run(
        [sys.executable, "-c", "import sys, kleinlab.cli; " + LOADED_MODULES],
        capture_output=True, text=True, env=child_env(), timeout=300,
    )
    assert r.returncode == 0, r.stderr
    assert r.stderr.splitlines()[-1] == str(CLI_MODULES)


def test_no_command_needs_scipy(tmp_path):
    # scipy is a test dependency only: every command runs in a child where
    # importing it fails, and loads only the modules it runs.
    prelude = (
        "import sys; sys.modules['scipy'] = None; "
        "from kleinlab.cli import main; rc = main(sys.argv[1:]); "
        + LOADED_MODULES + "; sys.exit(rc)"
    )
    limit_set = sorted(CLI_MODULES + ["gasket", "limitset", "numpy"])
    splitting = sorted(CLI_MODULES + ["decomposition"])
    (tmp_path / "ts.txt").write_text(
        "space A 2\nrow 0 1\nrow 1 0\nspace B 2\nrow 0 2\nrow 2 0\n"
        "tree-edge A B\nglue A B 1 0\n"
    )
    (tmp_path / "c4.txt").write_text("a b\nb c\nc d\nd a\n")
    # The numpy-free commands load exactly their list, so neither numpy
    # nor dataclasses; the others may also load dataclasses and inspect.
    for args, loaded, may_load in (
        (["solve"], CLI_MODULES, ()),
        (["points", "--depth", "3"], limit_set, DATACLASS_MODULES),
        (["dfs", "--preset", "hw-gasket", "--epsilon", "1e-2"], sorted(limit_set + ["wordtree"]),
         DATACLASS_MODULES),
        (["verify-gasket", "--normalize", "hw-gasket.circles.txt"],
         sorted(CLI_MODULES + ["gasket", "numpy"]), DATACLASS_MODULES),
        (["validate-gog", "abc-example"], splitting, ()),
        (["tree-limit", "ts.txt"], splitting, ()),
        (["cuts", "c4.txt"], splitting, ()),
    ):
        r = subprocess.run(
            [sys.executable, "-c", prelude, *args],
            capture_output=True, text=True, cwd=tmp_path, env=child_env(), timeout=300,
        )
        assert r.returncode == 0, (args, r.stderr)
        got = [m for m in ast.literal_eval(r.stderr.splitlines()[-1]) if m not in may_load]
        assert got == loaded, args


def test_stages_stay_reachable_for_tracing(tmp_path, monkeypatch, capsys):
    # A tracer wraps each stage where it is defined.  The commands must call
    # it from there, and `cli.<name>` must read it from there too.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c4.txt").write_text("a b\nb c\nc d\nd a\n")
    calls = collections.Counter()

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for module, name in (
            (limitset, "limit_set_dfs"), (gasket, "load_packing"), (decomposition, "cut_pairs"),
        ):
            patch.setattr(module, name, counting(name, getattr(module, name)))
            assert getattr(cli, name) is getattr(module, name)
        assert cli.main(["dfs", "--preset", "hw-gasket", "--epsilon", "1e-2", "--out", "run"]) == 0
        assert cli.main(["verify-gasket", "run.circles.txt"]) == 0
        assert cli.main(["cuts", "c4.txt"]) == 0
    capsys.readouterr()
    # dfs loads its seeds and verify-gasket its packing.
    assert calls == {"limit_set_dfs": 1, "load_packing": 2, "cut_pairs": 1}
    assert cli.limit_set_dfs is limitset.limit_set_dfs
    assert "limit_set_dfs" not in vars(cli)


def test_main_builds_the_parser_once(capsys):
    cli._make_parser.cache_clear()
    outputs = []
    for argv in (["solve"], ["validate-gog", "abc-example"]) * 2:
        assert cli.main(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2:] == outputs[:2]
    assert cli._make_parser.cache_info().misses == 1


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


@pytest.mark.parametrize("block", [1, 7])
def test_dfs_artifacts_do_not_depend_on_the_block_size(block, tmp_path, monkeypatch, capsys):
    # The text artifacts reach the writer a block of rows at a time.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gasket, "_ROW_BLOCK", block)
    monkeypatch.setattr(limitset, "_SVG_BLOCK", block)
    assert cli.main(["dfs", "--preset", "hw-gasket", "--epsilon", "1e-2", "--out", "run"]) == 0
    capsys.readouterr()
    for suffix, digest in GOLDEN_DFS_1E2.items():
        data = (tmp_path / f"run{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"run{suffix} changed"


# The same four artifacts at eps 1e-3, from the per-circle formatting and
# render (an EmittedCircle, OrientedCircle and CloudPoint per circle).
GOLDEN_DFS_1E3 = {
    ".circles.txt": "ff6126eea0d3520d67e3f6f4fec962f0f68027e7847df36fece2531594176d77",
    ".cloud.txt": "ce7c32096fcbbbb4b8fd8d8dad112f505918efc488dff96e0c9fae4c95dbb0a4",
    ".svg": "118db50c4a0ba8f3ed9978ce9db8a4d12cb090aadd0e24137cad257ec0871e5d",
    ".stats.json": "fe3ebe9ab29b20a768803100b359f55811e69c77f949f2e9ec3791f6f603300b",
}


def test_dfs_artifacts_match_golden_digests_at_1e_3(tmp_path):
    r = run_cli("dfs", "--preset", "hw-gasket", "--epsilon", "1e-3", "--out", "run", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    for suffix, digest in GOLDEN_DFS_1E3.items():
        data = (tmp_path / f"run{suffix}").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, f"run{suffix} changed"


# sha256 of the `verify-gasket --normalize` JSON on the hw-gasket packing,
# from the per-edge tangency graph (TangencyEdge objects, dict triangle walk
# and quadruple loop).  `command` and `config` are left out: they carry paths.
GOLDEN_VERIFY_NORMALIZE = {
    "5e-3": "072172d2fec33653e836ff12801d7c23c68dcc1197576a3994131b0606f5456a",
    "1e-3": "3dfffb25881a107ceac331f22dab868b9d4d7e97e2213aac428822b7614a121c",
}


@pytest.mark.parametrize("epsilon", sorted(GOLDEN_VERIFY_NORMALIZE))
def test_verify_normalize_json_matches_golden_digest(epsilon, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["dfs", "--preset", "hw-gasket", "--epsilon", epsilon, "--out", "run"]) == 0
    assert cli.main(["verify-gasket", "run.circles.txt", "--normalize", "--out", "verify"]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "verify").read_text())
    assert doc.pop("command") and doc.pop("config")
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_VERIFY_NORMALIZE[epsilon]


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


def test_word_fields_count_letters_not_bytes():
    # A generator may be any lowercase letter, so a word's UTF-8 bytes can
    # outnumber its letters; the rows print the letters' count.
    words = ["", "a\u00e9", "\u00c9B", "b"]
    field, lengths = cli._word_fields(words)
    assert lengths.tolist() == [0, 2, 2, 1]
    x = gasket._fields(np.array([0.5, 1.5, np.inf, -0.0]), "%.17g")
    assert cli._cloud_rows(x, x, field, lengths).decode() == (
        "0.5 0.5 0 -\n1.5 1.5 2 a\u00e9\ninf inf 2 \u00c9B\n-0 -0 1 b\n"
    )


# The tests' g1: a non-integral marking, so every number takes all 17 digits.
G1 = MoebiusMap(1 + 0.3j, 0.37, 0.21 - 0.1j, 1.13)


def write_conjugated_hw(directory, g):
    """The hw-gasket marking and seeds seen through g, as marking.txt and
    seeds.txt in directory: each generator x becomes g x g^-1 and each seed
    is moved by g."""
    presets = resources.files("kleinlab").joinpath("presets")
    group = load_marking(presets.joinpath("hw-marking.txt").read_text())
    seeds = load_packing(presets.joinpath("hw-seeds.txt").read_text()).circles
    lines = []
    for x in group.alphabet.names:
        m = g.compose(group.letter_map(x)).compose(g.inverse())
        a, b, c, d = ("[%r,%r]" % (v.real, v.imag) for v in (m.a, m.b, m.c, m.d))
        lines.append(f"gen {x} = [{a},{b};{c},{d}]\n")
    (directory / "marking.txt").write_text("".join(lines))
    (directory / "seeds.txt").write_text(dump_packing(CirclePacking([s.transform(g) for s in seeds])))


def split_header(text):
    """The leading '#' lines of an artifact, and the rest."""
    lines = text.splitlines(keepends=True)
    k = next((i for i, line in enumerate(lines) if not line.startswith("#")), len(lines))
    return "".join(lines[:k]), "".join(lines[k:])


@pytest.mark.parametrize("conjugator, depth", [("g1", 64), ("random2", 12)])
def test_dfs_text_artifacts_match_the_per_row_writers(conjugator, depth, tmp_path, monkeypatch, capsys):
    # The bulk formatter against the `%` per row that it replaced, on
    # markings whose numbers are not dyadic, in a window that cuts circles,
    # and with depth-exhausted rows in some blocks and not in others.
    g = G1 if conjugator == "g1" else random_map(random.Random(2))
    write_conjugated_hw(tmp_path, g)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(gasket, "_ROW_BLOCK", 500)
    monkeypatch.setattr(limitset, "_SVG_BLOCK", 500)
    window = "-3,-3,3,3"
    assert cli.main([
        "dfs", "--marking", "marking.txt", "--seeds", "seeds.txt", "--epsilon", "3e-3",
        "--depth", str(depth), "--window=" + window, "--resolution", "200", "--out", "run",
    ]) == 0
    capsys.readouterr()
    group = load_marking((tmp_path / "marking.txt").read_text())
    seeds = tuple(load_packing((tmp_path / "seeds.txt").read_text()).circles)
    config = DfsConfig(epsilon=3e-3, max_depth=depth, seeds=seeds, window=Rectangle.parse(window))
    result = limit_set_dfs(group, config)
    unwindowed = limit_set_dfs(group, DfsConfig(epsilon=3e-3, max_depth=depth, seeds=seeds))
    assert len(unwindowed.words) > len(result.words) > 2000
    assert (sum(result.depth_exhausted) > 0) == (depth < 64)
    header, body = split_header((tmp_path / "run.circles.txt").read_text())
    assert body == textoracle.circles_body(result)
    assert (tmp_path / "run.cloud.txt").read_text() == header + textoracle.cloud_body(result)
    comment = "\n".join(line[2:] for line in header.splitlines())
    monkeypatch.setattr(limitset, "_svg_blocks", textoracle.svg_blocks)
    _, svg = limitset._render(result.packing, result.in_cloud, config.window, 200, comment)
    assert (tmp_path / "run.svg").read_bytes() == b"".join(svg)


def test_points_rows_match_the_per_row_writer(tmp_path, monkeypatch, capsys):
    write_conjugated_hw(tmp_path, G1)
    monkeypatch.chdir(tmp_path)
    assert cli.main(["points", "--marking", "marking.txt", "--depth", "6", "--out", "pts"]) == 0
    capsys.readouterr()
    cloud = limit_points_by_fixed_points(load_marking((tmp_path / "marking.txt").read_text()), 6)
    header, body = split_header((tmp_path / "pts").read_text())
    assert len(cloud) > 1000
    assert body == textoracle.points_body(cloud)


@pytest.mark.parametrize(
    "argv, written",
    [
        (["dfs", "--preset", "hw-gasket", "--epsilon", "1e-2"], ".circles.txt"),
        (["points", "--depth", "3"], ""),
        (["verify-gasket", "preset:hw-seeds"], ""),
    ],
    ids=["dfs", "points", "verify-gasket"],
)
@pytest.mark.parametrize("target", ["missing-directory", "directory"])
def test_write_error_names_the_artifact(argv, written, target, tmp_path, monkeypatch, capsys):
    # A failed write names the artifact's path, the same on every run, not
    # the temp file beside it, and leaves no temp file behind.
    monkeypatch.chdir(tmp_path)
    if target == "directory":
        out = "taken"
        (tmp_path / (out + written)).mkdir()
    else:
        out = os.path.join("missing", "x")
    errors = []
    for _ in range(2):
        assert cli.main(argv + ["--out", out]) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("io error: ") and f"'{out}{written}'" in errors[0], errors[0]
    assert ".kleinlab-" not in errors[0]
    assert not [p for p in tmp_path.rglob(".kleinlab-*")]


def cloud_text_oracle(cloud):
    """The cloud rows as they were: one f-string per point."""
    lines = []
    for z, word in zip(cloud.z.tolist(), cloud.words):
        xy = "inf inf" if math.isinf(z.real) else f"{z.real:.17g} {z.imag:.17g}"
        lines.append(f"{xy} {len(word)} {word or '-'}")
    return "\n".join(lines) + "\n"


def points_rows(cloud):
    """The cloud's rows as `points` writes them."""
    return cli._cloud_text(cloud)


def test_cloud_rows_match_per_row_oracle():
    circles = [
        OrientedCircle._from_unit_triple(A, complex(Bre, Bim), (Bre * Bre + Bim * Bim - 1.0) / A)
        for A, Bre, Bim in ((2.0, 0.0, 0.5), (-2.0, -0.0, -1.0), (4.0, 1.0, 0.0), (1.0, 0.3, 0.1))
    ]
    circles += [OrientedCircle.from_line(1j, 0.0), OrientedCircle.from_center_radius(0.5j, 0.5)]
    packing = CirclePacking(circles + circles[::-1])
    words = ["", "a", "bA", "Ab", "B", "aaB", "x", "y", "z", "w", "v", "u"]
    cloud = LimitSetCloud(1e-9)
    kept = cloud.extend(packing.centres, words)
    expected = cloud_text_oracle(cloud)
    assert points_rows(cloud) == expected
    # `dfs` writes the cloud from the centre fields of the circles rows.
    x, y, _ = next(gasket._packing_rows(packing))
    word_field, lengths = cli._word_fields(words)
    dfs_rows = cli._cloud_rows(x[kept], y[kept], word_field[kept], lengths[kept]).decode()
    assert dfs_rows == expected
    assert expected.splitlines()[:3] == ["-0 -0.25 0 -", "-0 -0.5 1 a", "-0.25 0 2 bA"]
    assert "inf inf 1 B" in expected.splitlines()
    assert len(cloud) == 6
    points = [INFINITY, complex(-0.0, 0.0), 0.1 - 2.5j]
    cloud = LimitSetCloud(1e-9)
    cloud.extend(points, ["", "ab", "b"])
    assert points_rows(cloud) == cloud_text_oracle(cloud) == (
        "inf inf 0 -\n-0 0 2 ab\n0.10000000000000001 -2.5 1 b\n"
    )
    assert points_rows(LimitSetCloud(1e-9)) == "\n"


@pytest.fixture
def objects_made(monkeypatch):
    """Counts of the OrientedCircles and TangencyEdges built while the test
    runs, by class name."""
    made = collections.Counter()
    unit_triple = OrientedCircle._from_unit_triple.__func__
    circle_init = OrientedCircle.__init__
    edge_init = TangencyEdge.__init__

    def counted_unit_triple(cls, *args):
        made["OrientedCircle"] += 1
        return unit_triple(cls, *args)

    def counted_circle_init(self, *args):
        made["OrientedCircle"] += 1
        circle_init(self, *args)

    def counted_edge_init(self, *args):
        made["TangencyEdge"] += 1
        edge_init(self, *args)

    monkeypatch.setattr(OrientedCircle, "_from_unit_triple", classmethod(counted_unit_triple))
    monkeypatch.setattr(OrientedCircle, "__init__", counted_circle_init)
    monkeypatch.setattr(TangencyEdge, "__init__", counted_edge_init)
    # The counters see every constructor.
    OrientedCircle(1.0, 0j, -1.0).reversed()
    TangencyEdge(0, 1, 0j)
    assert made == {"OrientedCircle": 2, "TangencyEdge": 1}
    made.clear()
    return made


def test_dfs_builds_no_per_circle_objects(objects_made, tmp_path, monkeypatch, capsys):
    # dfs keeps its circles as one table from the traversal to the writes:
    # the only circle objects are the four seeds that DfsConfig takes.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["dfs", "--preset", "hw-gasket", "--epsilon", "1e-2", "--out", "run"]) == 0
    capsys.readouterr()
    seeds = len(cli.load_packing(cli._preset_text("hw-seeds.txt")))
    assert sum(objects_made.values()) <= seeds == 4, objects_made


@pytest.mark.parametrize("epsilon", ["1e-2", "1e-3"])
def test_verify_builds_no_per_edge_objects(epsilon, objects_made, tmp_path, monkeypatch, capsys):
    # verify-gasket --normalize works on the edge arrays: the only circles
    # it builds are the two behind each of the anchor triangle's three
    # tangency points, and it builds no TangencyEdge.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["dfs", "--preset", "hw-gasket", "--epsilon", epsilon, "--out", "run"]) == 0
    objects_made.clear()
    assert cli.main(["verify-gasket", "run.circles.txt", "--normalize"]) == 0
    capsys.readouterr()
    assert objects_made == {"OrientedCircle": 6}, objects_made


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


def test_dfs_rejects_empty_out(tmp_path, monkeypatch, capsys):
    # An empty out would name five hidden files in the working directory.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty-out.cfg").write_text("out=\n")
    for extra in (["--out", ""], ["--config", "empty-out.cfg"]):
        assert cli.main(["dfs", "--preset", "hw-gasket", "--epsilon", "0.05", *extra]) == 2
        assert "dfs needs --out" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["empty-out.cfg"]


@pytest.mark.parametrize(
    "extra, message",
    [
        # The window's top edge is at infinity.
        (["--epsilon", "0.5", "--window=0,0,1,inf"], "window corners and sides must be finite"),
        # One pixel row and column past the 8192 x 8192 cap, on the square
        # preset window: the check fires before any raster is allocated.
        (["--resolution", "8193"], "a 8193 x 8193 raster is 67125249 pixels, over the 67108864"),
    ],
)
def test_dfs_rejects_an_undrawable_raster_before_the_dfs(
    extra, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)

    def no_dfs(*args):
        raise AssertionError("the DFS ran")

    monkeypatch.setattr(limitset, "limit_set_dfs", no_dfs)
    assert cli.main(["dfs", "--preset", "hw-gasket", "--out", "run", *extra]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


NAN_MARKING = "# one entry is not a number\ngen a = [[1,0],[nan,0];[0,0],[1,0]]\n"


@pytest.mark.parametrize(
    "args, name, text, message",
    [
        (["verify-gasket"], "packing.txt", "C 0 0 1\nC 2 0 1\nC nan 0 1\nC 1 1.5 0.5\n",
         "line 3: numbers must be finite, got 'C nan 0 1'"),
        (["verify-gasket", "--normalize"], "packing.txt", "C 0 0 1\nC 2 0 1e400\n",
         "line 2: numbers must be finite, got 'C 2 0 1e400'"),
        (["dfs", "--preset", "hw-gasket", "--out", "run", "--seeds"], "seeds.txt", "C 0 0 1e400\n",
         "line 1: numbers must be finite, got 'C 0 0 1e400'"),
        (["points", "--depth", "3", "--marking"], "marking.txt", NAN_MARKING,
         "line 2: matrix entries must be finite"),
        (["dfs", "--preset", "hw-gasket", "--out", "run", "--marking"], "marking.txt", NAN_MARKING,
         "line 2: matrix entries must be finite"),
        # Finite entries whose determinant overflows, or underflows to 0.
        (["points", "--marking"], "marking.txt", "gen a = [[1e200,0],[0,0];[0,0],[1e200,0]]\n",
         "line 1: determinant (inf+0j) must be finite and nonzero"),
        (["points", "--marking"], "marking.txt", "gen a = [[1e-200,0],[0,0];[0,0],[1e-200,0]]\n",
         "line 1: determinant 0j must be finite and nonzero"),
        # A finite entry whose modulus overflows.
        (["points", "--marking"], "marking.txt", "gen a = [[1.5e308,1.5e308],[0,0];[0,0],[1,0]]\n",
         "line 1: matrix entries too large"),
    ],
    ids=[
        "verify-nan", "verify-overflow", "dfs-seeds", "points-marking", "dfs-marking",
        "points-det-overflow", "points-det-underflow", "points-entry-overflow",
    ],
)
def test_non_finite_inputs_exit_2(args, name, text, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert cli.main([*args, name]) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_points_refuses_a_depth_over_the_word_cap(monkeypatch, capsys):
    monkeypatch.setattr(MoebiusMap, "compose", None)  # no word may be composed
    monkeypatch.setattr(mobius, "_compose_rows", None)
    assert cli.main(["points", "--depth", "14"]) == 2
    out, err = capsys.readouterr()
    assert "input error: depth 14 at rank 2 needs more than the 4194304 words" in err
    assert out == ""


@pytest.mark.parametrize("extra", [[], ["--normalize"]])
def test_verify_gasket_fails_a_disconnected_packing(extra, tmp_path, monkeypatch, capsys):
    # Two copies of the bounded gasket without its enclosing circle, apart.
    inner = bounded_gasket(3).circles[1:]
    moved = [c.transform(MoebiusMap(1, 10, 0, 1)) for c in inner]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "split.txt").write_text(dump_packing(CirclePacking(inner + moved)))
    assert cli.main(["verify-gasket", "split.txt", *extra]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["circles"], doc["quadruples_checked"]) == (110, 62)
    assert doc["connected"] is False
    assert doc["worst_residual"] < 1e-5
    assert doc["failures"] == ["tangency graph disconnected"]


def test_artifacts_get_the_mode_open_gives(tmp_path, monkeypatch, capsys):
    previous = os.umask(0o022)
    try:
        for umask in (0o022, 0o027):
            os.umask(umask)
            run_dir = tmp_path / f"{umask:o}"
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            (run_dir / "plain").write_text("")
            expected = stat.S_IMODE((run_dir / "plain").stat().st_mode)
            assert cli.main(list(dfs_args())) == 0
            for suffix in ARTIFACT_SUFFIXES:
                mode = stat.S_IMODE((run_dir / f"run{suffix}").stat().st_mode)
                assert mode == expected, (oct(umask), suffix, oct(mode))
    finally:
        os.umask(previous)


def failing_chunks():
    yield "# header\n"
    yield "C 0 0 1\n"
    raise RuntimeError("formatting failed")


def failing_replace(src, dst):
    raise OSError("rename failed")


@pytest.mark.parametrize(
    "make_data, error, patch",
    [
        (lambda: "C 0 0 1\n\ud800\n", UnicodeEncodeError, None),
        (lambda: b"C 0 0 1\n", OSError, failing_replace),
        (failing_chunks, RuntimeError, None),
        (lambda: iter(["C 0 0 1\n", "\ud800"]), UnicodeEncodeError, None),
    ],
    ids=["str", "bytes", "chunks", "chunk-encoding"],
)
def test_write_atomic_keeps_the_old_artifact_when_a_write_fails(
    make_data, error, patch, tmp_path, monkeypatch
):
    # A failure after some of the new bytes are written leaves the artifact
    # as it was and no .kleinlab-* temp file beside it.
    path = tmp_path / "run.circles.txt"
    path.write_bytes(b"old artifact\n")
    if patch is not None:
        monkeypatch.setattr(os, "replace", patch)
    with pytest.raises(error):
        cli._write_atomic(str(path), make_data())
    assert path.read_bytes() == b"old artifact\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.circles.txt"]


def test_write_atomic_chunks_give_the_bytes_of_one_string(tmp_path):
    chunks = ["# kleinlab\n", "", "C 0 0 1\n", "C 1 1 0.5 \u00e9\n"]
    cli._write_atomic(str(tmp_path / "whole"), "".join(chunks))
    cli._write_atomic(str(tmp_path / "chunked"), iter(chunks))
    assert (tmp_path / "chunked").read_bytes() == (tmp_path / "whole").read_bytes()


# tracemalloc peaks of an in-process `dfs` at eps 3e-3, in bytes per
# circle, with the raster cut to 64 pixels wide so that the circles, not
# the pixmap, decide them.  Measured with the traversal's flat coefficient
# array and packed dedup keys, and the artifacts streamed to the writer a
# block at a time:
# - the traversal, per row it records (8,444): 236 above its start, against
#   453 with a list of floats and tuple keys;
# - the writes, per emitted circle (6,519): 170 above what limit_set_dfs
#   returned, against 323 with the circles and SVG text each joined whole,
#   and 1,010 with every artifact built whole as a str and encoded again;
# - the whole run, per emitted circle: 458, the cloud dedup's peak.
# Each bound is about 1.5 times the measured figure.
TRAVERSAL_PEAK_BYTES_PER_ROW = 350
DFS_WRITE_PEAK_BYTES_PER_CIRCLE = 255
DFS_PEAK_BYTES_PER_CIRCLE = 690


def test_dfs_peak_memory_per_circle(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["dfs", "--preset", "hw-gasket", "--resolution", "64", "--out", "run"]
    # A first small run, so that imports and caches are not counted.
    assert cli.main(argv + ["--epsilon", "1e-2"]) == 0
    # Per stage: traced bytes at its start, its peak and what it leaves held.
    stages = {}
    peaks = []

    def measured(stage):
        def run(*args):
            start, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            result = stage(*args)
            held, peak = tracemalloc.get_traced_memory()
            peaks.append(peak)
            tracemalloc.reset_peak()
            stages[stage.__name__] = (start, peak, held, result)
            return result
        return run

    for name in ("_preorder", "limit_set_dfs"):
        monkeypatch.setattr(limitset, name, measured(getattr(limitset, name)))
    tracemalloc.start()
    try:
        assert cli.main(argv + ["--epsilon", "3e-3"]) == 0
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    circles = json.loads((tmp_path / "run.stats.json").read_text())["stats"]["circles_emitted"]
    assert circles == 6519
    start, peak, _, (_, rows, _) = stages["_preorder"]
    traversal = (peak - start) / len(rows)
    writes = (peaks[-1] - stages["limit_set_dfs"][2]) / circles
    whole = max(peaks) / circles
    assert traversal < TRAVERSAL_PEAK_BYTES_PER_ROW, f"traversal: {traversal:.0f} bytes per row"
    assert writes < DFS_WRITE_PEAK_BYTES_PER_CIRCLE, f"writes: {writes:.0f} bytes per circle"
    assert whole < DFS_PEAK_BYTES_PER_CIRCLE, f"whole run: {whole:.0f} bytes per circle"


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


def test_verify_gasket_names_a_circle_out_of_the_scans_range(tmp_path):
    packing_file = tmp_path / "huge.txt"
    packing_file.write_text("C 1e154 0 1\n" + CHAIN)
    r = run_cli("verify-gasket", str(packing_file))
    assert r.returncode == 2, r.stderr
    assert r.stderr.startswith("input error: circle 0 lies outside the tangency scan's float range")
    assert r.stdout == ""


def test_verify_gasket_reports_overlap_without_normalize(tmp_path):
    packing_file = tmp_path / "overlap.txt"
    packing_file.write_text(OVERLAPPING)
    r = run_cli("verify-gasket", str(packing_file))
    assert r.returncode == 1
    doc = json.loads(r.stdout)
    assert doc["passed"] is False
    assert doc["overlap_pairs"] == [[0, 1]]


def test_verify_gasket_reports_a_circle_listed_with_its_complement(tmp_path):
    # The unit circle and its complement are one locus; the complement's
    # disk also overlaps the two other circles.
    packing_file = tmp_path / "complement.txt"
    packing_file.write_text("C 0 0 1\nC 0 0 -1\nC 2 0 1\nC 5 0 1\n")
    r = run_cli("verify-gasket", str(packing_file))
    assert r.returncode == 1, r.stderr
    doc = json.loads(r.stdout)
    assert doc["passed"] is False
    assert doc["overlap_pairs"] == [[0, 1], [1, 2], [1, 3]]
    assert "3 crossing pair(s)" in doc["failures"]
    r = run_cli("verify-gasket", str(packing_file), "--normalize")
    assert r.returncode == 2
    assert "overlapping circle pairs: ((0, 1), (1, 2), (1, 3))" in r.stderr
    assert r.stdout == ""


def test_validate_gog_bundled_example():
    r = run_cli("validate-gog", "abc-example")
    assert r.returncode == 0
    assert "vertices: 7  edges: 6  tree: yes" in r.stdout
    assert "pass" in r.stdout.splitlines()


def test_validate_gog_takes_the_bundled_name_with_or_without_its_suffix(capsys):
    bodies = []
    for name in ("abc-example", "abc-example.gog"):
        assert cli.main(["validate-gog", name]) == 0
        bodies.append(capsys.readouterr().out.splitlines()[3:])
    assert bodies[0] == bodies[1] == ["vertices: 7  edges: 6  tree: yes", "pass"]


@pytest.mark.parametrize("name", ["missing.gog", "missing"])
def test_validate_gog_names_a_missing_input_as_given(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["validate-gog", name]) == 2
    assert capsys.readouterr().err == f"no file or bundled preset named {name!r}\n"


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


def test_tree_limit_names_the_line_of_a_zero_denominator(tmp_path):
    ts = tmp_path / "ts.txt"
    ts.write_text("space s 2\nrow 0 1/0\nrow 1/0 0\n")
    r = run_cli("tree-limit", str(ts))
    assert r.returncode == 2
    assert "line 2: expected a rational, got '1/0'" in r.stderr
    assert "Traceback" not in r.stderr


def test_tree_limit_refuses_a_repeated_space(tmp_path):
    ts = tmp_path / "ts.txt"
    ts.write_text(
        "space A 2\nrow 0 1\nrow 1 0\n"
        "space A 2\nrow 0 5\nrow 5 0\n"
        "space B 2\nrow 0 2\nrow 2 0\n"
        "tree-edge A B\nglue A B 1 0\n"
    )
    r = run_cli("tree-limit", str(ts))
    assert r.returncode == 2
    assert "line 4: duplicate space A" in r.stderr
    assert "Traceback" not in r.stderr
    assert "row" not in r.stdout


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


def seeded_tree_system_text(seed, spaces=10):
    """A tree of `spaces` L1-plane metric spaces of 3-7 points, coordinates
    with denominators up to 13, glued along 1-3 point pairs per edge."""
    rng = random.Random(seed)
    lines, sizes = [], []
    for t in range(spaces):
        n, pts = rng.randint(3, 7), set()
        while len(pts) < n:
            pts.add(tuple(Fraction(rng.randint(0, 40), rng.randint(1, 13)) for _ in range(2)))
        pts = sorted(pts)
        sizes.append(len(pts))
        lines.append(f"space K{t} {len(pts)}")
        for a in pts:
            lines.append("row " + " ".join(str(abs(a[0] - b[0]) + abs(a[1] - b[1])) for b in pts))
    for t in range(1, spaces):
        parent = rng.randrange(t)
        lines.append(f"tree-edge K{parent} K{t}")
        k = rng.randint(1, min(3, sizes[parent], sizes[t]))
        for p, q in zip(rng.sample(range(sizes[parent]), k), rng.sample(range(sizes[t]), k)):
            lines.append(f"glue K{parent} K{t} {p} {q}")
    return "\n".join(lines) + "\n"


def body_digest(path):
    """sha256 of an output file without its `#` header, which records argv."""
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(l for l in lines if not l.startswith(b"#"))).hexdigest()


# sha256 of the tree-limit body rows and of the cuts report on the subdivided
# bounded_gasket(3) graph, from the Fraction triangle check and the per-pair
# component search that the integer kernels replaced.
GOLDEN_TREE_LIMIT_SEED_9 = "3430e7c2382918851733ec8a8c3f4af1605b30ad178be89e851dccdc4ab7d9e5"
GOLDEN_CUTS_GASKET3 = "92b33b398b80f3dcf6a5fc450260a4618a340c0cd982f83848a571519d9926ed"


def test_tree_limit_rows_match_golden_digest(tmp_path):
    (tmp_path / "ts.txt").write_text(seeded_tree_system_text(9))
    r = run_cli("tree-limit", "ts.txt", "--out", "limit", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert body_digest(tmp_path / "limit") == GOLDEN_TREE_LIMIT_SEED_9


def test_cuts_report_on_gasket_matches_golden_digest(tmp_path):
    edges = subdivided_gasket_edges(3)
    (tmp_path / "g.txt").write_text("".join(f"{a} {b}\n" for a, b in edges))
    r = run_cli("cuts", "g.txt", "--out", "cuts", cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    assert body_digest(tmp_path / "cuts") == GOLDEN_CUTS_GASKET3


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


@pytest.mark.parametrize(
    "extra, config, message",
    [
        (["--tol", "inf"], None, "tol must be positive and finite, got inf"),
        (["--residual", "inf"], None, "residual must be positive and finite, got inf"),
        ([], "tol=inf\n", "tol must be positive and finite, got inf"),
        # Finite, but wide enough to take every crossing pair for tangent.
        (["--tol", "1e6"], None, "tangency tolerance must lie in (0, 4), got 1000000.0"),
        (["--tol", "4"], None, "tangency tolerance must lie in (0, 4), got 4.0"),
    ],
    ids=["tol-inf", "residual-inf", "config-tol-inf", "tol-1e6", "tol-4"],
)
def test_verify_gasket_refuses_a_tolerance_past_its_range(
    extra, config, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "packing.txt").write_text(dump_packing(bounded_gasket(2)))
    if config:
        (tmp_path / "run.cfg").write_text(config)
        extra = ["--config", "run.cfg"]
    assert cli.main(["verify-gasket", "packing.txt", *extra]) == 2
    out, err = capsys.readouterr()
    assert message in err
    assert out == ""


# -- the knob table ----------------------------------------------------------------
# The expected strings are the CLI's output from before its knobs were
# derived from RunConfig's fields.

KNOB_FLAGS = (
    "--epsilon", "--depth", "--tol", "--residual", "--window", "--resolution",
    "--out", "--seeds", "--marking", "--normalize", "--preset",
)
CONFIG_KEYS = (
    "epsilon", "depth", "tol", "residual", "window", "resolution",
    "out", "seeds", "marking", "input", "normalize",
)
GOLDEN_EVERY_KNOB_CONFIG = (
    "config: epsilon=0.05 depth=12 tol=3e-06 residual=4e-05 "
    "window=-1.0,-0.5,2.0,1.5 resolution=64 out=knobs seeds=preset:hw-seeds "
    "marking=preset:hw-marking input=unused-input.txt normalize=true preset=hw-gasket"
)
GOLDEN_EVERY_KNOB_JSON = {
    "depth": "12",
    "epsilon": "0.05",
    "input": "unused-input.txt",
    "marking": "preset:hw-marking",
    "normalize": "true",
    "out": "knobs",
    "preset": "hw-gasket",
    "residual": "4e-05",
    "resolution": "64",
    "seeds": "preset:hw-seeds",
    "tol": "3e-06",
    "window": "-1.0,-0.5,2.0,1.5",
}


def test_every_knob_header_matches_golden(tmp_path, monkeypatch, capsys):
    # Each knob is set by the preset, the config file or a flag, and some by
    # more than one, so the echo also pins the precedence.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "knobs.cfg").write_text(
        "tol=1e-7\nresidual=2e-5\nseeds=preset:hw-seeds\nnormalize=true\n"
    )
    argv = [
        "dfs", "unused-input.txt", "--preset", "hw-gasket", "--config", "knobs.cfg",
        "--epsilon", "0.05", "--depth", "12", "--window=-1,-0.5,2,1.5",
        "--resolution", "64", "--out", "knobs", "--marking", "preset:hw-marking",
        "--tol", "3e-6", "--residual", "4e-5",
    ]
    assert cli.main(argv) == 0
    capsys.readouterr()
    header = (tmp_path / "knobs.circles.txt").read_text().splitlines()[:3]
    assert header == [
        "# kleinlab " + cli.__version__,
        "# command: kleinlab " + " ".join(argv),
        "# " + GOLDEN_EVERY_KNOB_CONFIG,
    ]
    doc = json.loads((tmp_path / "knobs.stats.json").read_text())
    assert doc["config"] == GOLDEN_EVERY_KNOB_JSON


def test_empty_out_is_echoed_and_empty_preset_is_not(capsys):
    assert cli.main(["points", "--depth", "1", "--out", ""]) == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "# config: epsilon=0.001 depth=1 tol=1e-06 residual=1e-05 resolution=800 "
        "out= normalize=false"
    )
    assert cli.main(["points", "--depth", "1", "--preset", ""]) == 0
    assert capsys.readouterr().out.splitlines()[2] == (
        "# config: epsilon=0.001 depth=1 tol=1e-06 residual=1e-05 resolution=800 "
        "normalize=false"
    )


def test_config_keys_are_the_knobs_but_preset():
    text = (
        "epsilon=0.5\ndepth=3\ntol=1e-7\nresidual=1e-4\nwindow=0,0,1,1\nresolution=32\n"
        "out=o\nseeds=s\nmarking=m\ninput=i\nnormalize=true\n"
    )
    assert tuple(cli.load_config(text)) == CONFIG_KEYS
    for key in ("command", "preset"):
        with pytest.raises(cli.UnknownKeyError, match=f"<config>:1: unknown key '{key}'"):
            cli.load_config(f"{key}=dfs\n")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_help_lists_each_flag_once(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    # Option lines of the help body start with the flag; usage lines with '['.
    listed = re.findall(r"^\s+(--[a-z]+)", capsys.readouterr().out, re.MULTILINE)
    assert sorted(listed) == sorted(KNOB_FLAGS + ("--config",))
