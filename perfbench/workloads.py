"""The three workloads: what each sets up, the four operations it times per
iteration, and how each operation's output is checked.

- dfs-ladder:    `kleinlab dfs --preset hw-gasket` at four epsilons, in process.
- verify-ladder: `kleinlab verify-gasket --normalize` on four dfs packings
                 made during set-up, in process.
- cli-tools:     `solve` in a fresh `python -m kleinlab.cli` child (start-up),
                 then points, validate-gog, tree-limit and cuts, in process.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import inputs

# Reference counts of the hw-gasket pipeline.  dfs: circles emitted and
# cloud points per epsilon (the two seed lines share the point at infinity).
# verify: triangles and quadruples checked.  points: rows at depth 8.
DFS_REFERENCE = {
    "1e-2": (1369, 1368),
    "5e-3": (3341, 3340),
    "3e-3": (6519, 6518),
    "1e-3": (27267, 27266),
}
VERIFY_REFERENCE = {
    "2e-2": (1591, 530),
    "1e-2": (4099, 1366),
    "7e-3": (6457, 2152),
    "5e-3": (10015, 3338),
}
POINTS_REFERENCE = 12570
# Runs of each op per untraced iteration, smallest rung first: the short
# rungs take more samples, at little cost.
DFS_REPEATS = (4, 2, 1, 1)
VERIFY_REPEATS = (4, 2, 1, 1)
ARTIFACTS = (".circles.txt", ".cloud.txt", ".ppm", ".svg", ".stats.json")
CHILD_TIMEOUT_S = 120


class Op(NamedTuple):
    """One timed operation.  `run(r)` does the work for repeat r and returns
    what `check()` needs; `check()` runs after the iteration's clock has
    stopped and returns (problems found, bytes the operation wrote)."""

    label: str  # op1..op4, or "extra" for a step without an op slot
    name: str   # the timing it reports as, e.g. dfs_eps1e-2_s
    run: Callable[[int], object]
    check: Callable[[object], tuple[list[str], int]]
    # Runs per untraced iteration: short ops repeat, so that their mean
    # rests on more samples spread over the run.
    repeats: int = 1


def _cli(argv: list[str]) -> tuple[int, str]:
    """kleinlab.cli.main in this process, stdout captured.  The attribute is
    read at call time so a traced run reaches the wrapped function."""
    import kleinlab.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = kleinlab.cli.main(argv)
    return rc, buf.getvalue()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class DfsLadder:
    name = "dfs-ladder"
    rungs = tuple(DFS_REFERENCE)

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.digests: dict[str, list[str]] = {}  # artifact stem -> first digests

    def setup(self, where: Path) -> None:
        where.mkdir(parents=True)
        self.seeds = where / "seeds.txt"
        self.seeds.write_text(inputs.hw_seeds_text(self.seed))
        # A first small dfs, so the timed ones all find the code warm.
        rc, _ = _cli(self._argv("1e-2", where / "warm"))
        if rc != 0:
            raise RuntimeError(f"set-up dfs exited {rc}")

    def _argv(self, eps: str, stem: Path) -> list[str]:
        return ["dfs", "--preset", "hw-gasket", "--epsilon", eps,
                "--seeds", str(self.seeds), "--out", str(stem)]

    def ops(self) -> list[Op]:
        out = []
        for k, (eps, repeats) in enumerate(zip(self.rungs, DFS_REPEATS)):
            def run(r, eps=eps):
                # Each repeat has its own stem, so its artifacts survive
                # until the check; the stem is part of the artifact header.
                stem = self.work / f"dfs-{eps}-{r}"
                rc, _ = _cli(self._argv(eps, stem))
                return rc, stem

            def check(payload, eps=eps):
                rc, stem = payload
                problems = [] if rc == 0 else [f"exit code {rc}"]
                paths = [Path(str(stem) + s) for s in ARTIFACTS]
                if rc == 0:
                    stats = json.loads(paths[-1].read_text())["stats"]
                    got = (stats["circles_emitted"], stats["cloud_points"])
                    want = DFS_REFERENCE[eps]
                    if got != want:
                        problems.append(f"circles/cloud points {got} != {want}")
                    digests = [_digest(p) for p in paths]
                    first = self.digests.setdefault(str(stem), digests)
                    if digests != first:
                        problems.append("artifacts differ from this run's first dfs")
                return problems, sum(p.stat().st_size for p in paths if p.exists())

            out.append(Op(f"op{k + 1}", f"dfs_eps{eps}_s", run, check, repeats))
        return out


class VerifyLadder:
    name = "verify-ladder"
    rungs = tuple(VERIFY_REFERENCE)

    def __init__(self, root: Path, seed: int, work: Path):
        self.seed = seed
        self.packings: dict[str, Path] = {}

    def setup(self, where: Path) -> None:
        where.mkdir(parents=True)
        for eps in self.rungs:
            stem = where / f"dfs-{eps}"
            rc, _ = _cli(["dfs", "--preset", "hw-gasket", "--epsilon", eps, "--out", str(stem)])
            if rc != 0:
                raise RuntimeError(f"set-up dfs at {eps} exited {rc}")
            circles = Path(str(stem) + ".circles.txt").read_text()
            packing = where / f"packing-{eps}.txt"
            packing.write_text(inputs.shuffled_packing_text(circles, self.seed))
            self.packings[eps] = packing

    def ops(self) -> list[Op]:
        out = []
        for k, (eps, repeats) in enumerate(zip(self.rungs, VERIFY_REPEATS)):
            def run(r, eps=eps):
                return _cli(["verify-gasket", str(self.packings[eps]), "--normalize"])

            def check(result, eps=eps):
                rc, text = result
                if rc != 0:
                    return [f"exit code {rc}"], 0
                doc = json.loads(text)
                problems = []
                if not doc["passed"]:
                    problems.append(f"verdict failed: {doc['failures']}")
                if not doc["worst_residual"] < 1e-5:
                    problems.append(f"worst residual {doc['worst_residual']}")
                got = (doc["triangles_checked"], doc["quadruples_checked"])
                if got != VERIFY_REFERENCE[eps]:
                    problems.append(f"triangles/quadruples {got} != {VERIFY_REFERENCE[eps]}")
                return problems, 0

            out.append(Op(f"op{k + 1}", f"verify_eps{eps}_s", run, check, repeats))
        return out


class CliTools:
    name = "cli-tools"

    def __init__(self, root: Path, seed: int, work: Path):
        self.root = root
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.tracer = None  # set by the runner during traced iterations
        self.first_points: dict[Path, bytes] = {}  # points file -> first output

    def setup(self, where: Path) -> None:
        where.mkdir(parents=True)
        text = inputs.tree_system_text(self.seed)
        self.tree = where / "tree.txt"
        self.tree.write_text(text)
        self.tree_expected = inputs.tree_limit_oracle(text)
        graph, self.subdivision = inputs.gasket_graph_text(self.seed)
        self.graph = where / "graph.txt"
        self.graph.write_text(graph)

    def _child(self, args: list[str]) -> subprocess.CompletedProcess:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "kleinlab.cli", *args]
        else:
            spans = self.work / "child-spans.json"
            cmd = [sys.executable, str(self.root / "perfbench" / "child.py"), str(spans), *args]
        proc = subprocess.run(cmd, cwd=self.work, env=self.env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if self.tracer is not None and spans.exists():
            self.tracer.merge(json.loads(spans.read_text()))
            spans.unlink()
        return proc

    def import_times(self) -> tuple[float, float]:
        from layers import import_times

        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import kleinlab.cli"],
                              cwd=self.work, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        return import_times(proc.stderr)

    def ops(self) -> list[Op]:
        w = self.work

        def written(*paths):
            return sum(p.stat().st_size for p in paths if p.exists())

        def run_solve(r):
            return self._child(["solve"])

        def check_solve(proc):
            if proc.returncode != 0:
                return [f"exit code {proc.returncode}"], 0
            values = {}
            for line in proc.stdout.splitlines():
                key, _, val = line.partition(" = ")
                if not val.startswith("["):
                    values[key] = complex(val.replace("i", "j"))
            problems = []
            # Criterion 1: c^2 = -4, commutator trace^2 = 4, fixed point (-1+i)/2,
            # to the nine printed decimals.
            if abs(values["c"] ** 2 + 4) > 1e-8:
                problems.append(f"c = {values['c']}")
            if abs(values["commutator trace^2"] - 4) > 1e-8:
                problems.append(f"trace^2 = {values['commutator trace^2']}")
            if abs(values["commutator fixed point"] - (-1 + 1j) / 2) > 1e-8:
                problems.append(f"fixed point = {values['commutator fixed point']}")
            return problems, 0

        # Each repeat writes its own file, so that every output is checked;
        # the file names its path in its header.
        def run_points(r):
            points = w / f"points-{r}.txt"
            return _cli(["points", "--depth", "8", "--out", str(points)]), points

        def check_points(result):
            (rc, text), points = result
            if rc != 0:
                return [f"exit code {rc}"], 0
            data = points.read_bytes()
            rows = [r for r in data.decode().splitlines() if not r.startswith("#")]
            problems = []
            claimed = [int(ln.split()[0]) for ln in text.splitlines() if "limit points" in ln]
            if claimed != [len(rows)] or len(rows) != POINTS_REFERENCE:
                problems.append(f"{len(rows)} rows, {claimed} claimed, {POINTS_REFERENCE} expected")
            if any(int(r.split()[2]) > 8 for r in rows):
                problems.append("a word longer than the depth")
            if self.first_points.setdefault(points, data) != data:
                problems.append("points output differs from this run's first")
            return problems, len(data)

        def run_gog(r):
            return _cli(["validate-gog", "abc-example"])

        def check_gog(result):
            rc, text = result
            ok = rc == 0 and text.splitlines()[-1:] == ["pass"]
            return ([] if ok else [f"validate-gog: exit {rc}"]), 0

        limit = w / "limit.txt"

        def run_tree(r):
            return _cli(["tree-limit", str(self.tree), "--out", str(limit)])

        def check_tree(result):
            rc, _ = result
            if rc != 0:
                return [f"exit code {rc}"], 0
            got = inputs.parse_tree_limit(limit.read_text())
            ok = got == self.tree_expected
            return ([] if ok else ["quotient differs from the union-find/Floyd-Warshall oracle"]), written(limit)

        def run_cuts(r):
            cuts = w / f"cuts-{r}.txt"
            return _cli(["cuts", str(self.graph), "--out", str(cuts)]), cuts

        def check_cuts(result):
            (rc, _), cuts = result
            if rc != 0:
                return [f"exit code {rc}"], 0
            link = {}
            for line in cuts.read_text().splitlines():
                if line.startswith("vertex "):
                    parts = line.split()
                    link[parts[1]] = int(parts[3].split("=")[1])
            bad = [v for v in self.subdivision if link.get(v) != 2]
            problems = [f"{len(bad)} subdivision vertices off link valency 2"] if bad else []
            return problems, written(cuts)

        return [
            Op("op1", "startup_s", run_solve, check_solve, repeats=2),
            Op("op2", "points_s", run_points, check_points, repeats=2),
            Op("extra", "validate_gog_s", run_gog, check_gog),
            Op("op3", "tree_limit_s", run_tree, check_tree),
            Op("op4", "cuts_s", run_cuts, check_cuts, repeats=4),
        ]


WORKLOADS = {w.name: w for w in (DfsLadder, VerifyLadder, CliTools)}
