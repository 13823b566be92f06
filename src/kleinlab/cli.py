"""Command-line front end.

Subcommands:

    solve          print the parabolic-commutator marking and its constants
    points         fixed-point cloud for a marked group
    dfs            circle-image search: circles, cloud, PPM, SVG, stats
    verify-gasket  packing verdict as JSON
    validate-gog   splitting-shape report for a graph of groups
    tree-limit     quotient metric of a tree system
    cuts           valency and cut-pair report for a finite graph

Configuration precedence: built-in defaults, then --preset, then --config
file, then explicit flags.  Every artifact starts with a header recording
tool version, command line, and effective configuration; timing is printed
to stdout only, so artifact bytes are reproducible.

Exit codes: 0 success/pass, 1 verdict failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from importlib import resources

from . import __version__
from .decomposition import (
    cut_pairs,
    link_valency,
    load_graph_of_groups,
    load_simple_graph,
    load_tree_system,
    local_cut_valency,
    tree_system_limit,
    validate_bowditch,
)
from .gasket import CirclePacking, dump_packing, is_apollonian_like, load_packing
from .groups import _format_lines, load_marking, solve_parabolic_commutator
from .limitset import (
    DfsConfig,
    Rectangle,
    limit_points_by_fixed_points,
    limit_set_dfs,
    render,
)
from .mobius import INFINITY

__all__ = ["main", "RunConfig", "load_config", "ConfigError", "UnknownKeyError"]


class ConfigError(ValueError):
    pass


class UnknownKeyError(ConfigError):
    pass


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # keep usage failures as exit code 2
        raise _UsageError(f"{self.prog}: {message}")


# -- configuration --------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    """The effective settings of one run.  Every field after `command` is a
    knob: its name is the config key and the flag, its default the built-in
    default, and the field order is the order artifact headers echo it in.
    `preset` comes last and is a flag only."""

    command: str
    epsilon: float = 1e-3
    depth: int | None = None  # per-command default from _DEPTH_DEFAULTS
    tol: float = 1e-6
    residual: float = 1e-5
    window: Rectangle | None = None
    resolution: int = 800
    out: str | None = None
    seeds: str | None = None
    marking: str | None = None
    input: str | None = None
    normalize: bool = False
    preset: str | None = None

    def echo_pairs(self) -> list[tuple[str, str]]:
        """Deterministic key=value listing of every set knob."""
        pairs: list[tuple[str, str]] = []
        for f in fields(self)[1:]:
            val = getattr(self, f.name)
            if val is None or (f.name == "preset" and not val):
                continue
            if isinstance(val, bool):
                text = "true" if val else "false"
            elif isinstance(val, Rectangle):
                text = f"{val.x0!r},{val.y0!r},{val.x1!r},{val.y1!r}"
            else:
                text = str(val)
            pairs.append((f.name, text))
        return pairs


# Config-file keys: every knob but `preset`.
_KNOBS = tuple(f.name for f in fields(RunConfig)[1:-1])
_DEPTH_DEFAULTS = {"points": 8, "dfs": 64}
# Help placeholders; a flag without one shows its name in capitals.
_METAVARS = {
    "window": "x0,y0,x1,y1", "out": "PATH", "seeds": "PATH", "marking": "PATH", "preset": "NAME",
}


def _parse_value(key: str, raw: str):
    if key in ("epsilon", "tol", "residual"):
        val = float(raw)
        if not val > 0.0:
            raise ConfigError(f"{key} must be positive, got {raw}")
        return val
    if key in ("depth", "resolution"):
        val = int(raw)
        if key == "depth" and val < 1:
            raise ConfigError(f"depth must be >= 1, got {raw}")
        if key == "resolution" and val < 16:
            raise ConfigError(f"resolution must be >= 16, got {raw}")
        return val
    if key == "window":
        return Rectangle.parse(raw)
    if key == "normalize":
        if raw not in ("true", "false"):
            raise ConfigError(f"normalize must be true or false, got {raw}")
        return raw == "true"
    return raw  # path-like knobs stay strings


def load_config(text: str, source: str = "<config>") -> dict[str, object]:
    """Parse key=value lines; '#' comments and blank lines allowed.
    Unknown keys and malformed values are errors with line numbers."""
    out: dict[str, object] = {}
    for line_no, line in _format_lines(text):
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep:
            raise ConfigError(f"{source}:{line_no}: expected key=value, got {line!r}")
        if key not in _KNOBS:
            raise UnknownKeyError(f"{source}:{line_no}: unknown key {key!r}")
        try:
            out[key] = _parse_value(key, value)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{source}:{line_no}: {exc}") from None
    return out


def _preset_text(name: str) -> str:
    path = resources.files("kleinlab").joinpath("presets", name)
    try:
        return path.read_text()
    except FileNotFoundError:
        raise _UsageError(f"no bundled preset file {name!r}") from None


def _resolve_input(ref: str, suffix: str = ".txt") -> str:
    """Read a path, or a bundled file via the preset:<name> scheme."""
    if ref.startswith("preset:"):
        return _preset_text(ref.split(":", 1)[1] + suffix)
    with open(ref, "r") as fh:
        return fh.read()


def _build_config(args: argparse.Namespace) -> RunConfig:
    merged: dict[str, object] = {}
    if args.preset:
        merged.update(load_config(_preset_text(args.preset + ".cfg"), source=args.preset))
    if args.config:
        with open(args.config, "r") as fh:
            merged.update(load_config(fh.read(), source=args.config))
    for key in _KNOBS:
        val = getattr(args, key)
        if val is None or val is False:
            continue
        merged[key] = _parse_value(key, val) if isinstance(val, str) else val
    merged.setdefault("depth", _DEPTH_DEFAULTS.get(args.command, 8))
    return RunConfig(command=args.command, preset=args.preset, **merged)  # type: ignore[arg-type]


# -- artifact plumbing -----------------------------------------------------------

def _header_text(cfg: RunConfig, argv: list[str]) -> str:
    config = " ".join(f"{k}={v}" for k, v in cfg.echo_pairs())
    return (
        f"kleinlab {__version__}\n"
        f"command: kleinlab {' '.join(argv)}\n"
        f"config: {config}"
    )


def _commented(header: str, body: str) -> str:
    return "".join(f"# {line}\n" for line in header.splitlines()) + body


def _write_atomic(path: str, data: str | bytes) -> None:
    payload = data.encode() if isinstance(data, str) else data
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kleinlab-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, header: str, body: str) -> None:
    """Send a text artifact to --out, or stdout when no path was given."""
    text = _commented(header, body)
    if cfg.out:
        _write_atomic(cfg.out, text)
        print(f"wrote {cfg.out}")
    else:
        sys.stdout.write(text)


def _fmt_complex(z: complex, digits: int = 9) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.{digits}f}{sign}{abs(z.imag):.{digits}f}i"


def _cloud_text(points) -> str:
    """One 'x y word_length word' row per cloud point, 'inf inf' for
    infinity and '-' for the empty word."""
    lines = []
    for p in points:
        if p.point is INFINITY:
            xy = "inf inf"
        else:
            z = complex(p.point)
            xy = f"{z.real:.17g} {z.imag:.17g}"
        lines.append(f"{xy} {p.word_length} {p.word or '-'}")
    return "\n".join(lines) + "\n"


def _load_marked_group(cfg: RunConfig):
    ref = cfg.marking or "preset:hw-marking"
    return load_marking(_resolve_input(ref))


# -- subcommands -----------------------------------------------------------------

def _cmd_solve(cfg: RunConfig, argv: list[str]) -> int:
    sol = solve_parabolic_commutator()
    a = sol.group.letter_map("a")
    b = sol.group.letter_map("b")
    k = sol.group.evaluate("[a,b]")
    tr = k.trace
    fixed = k.fixed_points()[0][0]
    print(f"c = {_fmt_complex(sol.parameter)}")
    print(f"a = [[{_fmt_complex(a.a)}, {_fmt_complex(a.b)}], [{_fmt_complex(a.c)}, {_fmt_complex(a.d)}]]")
    print(f"b = [[{_fmt_complex(b.a)}, {_fmt_complex(b.b)}], [{_fmt_complex(b.c)}, {_fmt_complex(b.d)}]]")
    print(f"commutator trace = {_fmt_complex(tr)}")
    print(f"commutator trace^2 = {_fmt_complex(tr * tr)}")
    print(f"commutator fixed point = {_fmt_complex(fixed)}")
    return 0


def _cmd_points(cfg: RunConfig, argv: list[str]) -> int:
    group = _load_marked_group(cfg)
    cloud = limit_points_by_fixed_points(group, cfg.depth)
    _emit(cfg, _header_text(cfg, argv), _cloud_text(cloud.points))
    print(f"{len(cloud.points)} limit points at depth {cfg.depth}")
    return 0


def _cmd_dfs(cfg: RunConfig, argv: list[str]) -> int:
    if cfg.out is None:
        raise _UsageError("dfs needs --out (artifact base path)")
    if cfg.window is None:
        raise _UsageError("dfs needs --window x0,y0,x1,y1")
    group = _load_marked_group(cfg)
    seeds = load_packing(_resolve_input(cfg.seeds or "preset:hw-seeds")).circles
    dfs_config = DfsConfig(
        epsilon=cfg.epsilon,
        max_depth=cfg.depth,
        seeds=tuple(seeds),
        window=cfg.window,
    )
    result = limit_set_dfs(group, dfs_config)
    header = _header_text(cfg, argv)

    circles = [e.circle for e in result.circles]
    rows = dump_packing(CirclePacking(circles)).splitlines()
    circle_lines = [
        row + f"  # w={e.word or '-'}" + ("  depth-exhausted" if e.depth_exhausted else "")
        for row, e in zip(rows, result.circles)
    ]
    _write_atomic(cfg.out + ".circles.txt", _commented(header, "\n".join(circle_lines) + "\n"))
    _write_atomic(cfg.out + ".cloud.txt", _commented(header, _cloud_text(result.cloud.points)))

    image = render(
        result.cloud,
        circles,
        cfg.window,
        cfg.resolution,
        comment=header,
    )
    _write_atomic(cfg.out + ".ppm", image.ppm)
    _write_atomic(cfg.out + ".svg", image.svg)

    stats = result.stats
    stats_doc = {
        "version": __version__,
        "command": "kleinlab " + " ".join(argv),
        "config": dict(cfg.echo_pairs()),
        "stats": {
            "words_visited": stats.words_visited,
            "branches_pruned": stats.branches_pruned,
            "circles_emitted": stats.circles_emitted,
            "depth_exhausted_branches": stats.depth_exhausted_branches,
            "max_depth_reached": stats.max_depth_reached,
            "cloud_points": len(result.cloud.points),
        },
    }
    _write_atomic(cfg.out + ".stats.json", json.dumps(stats_doc, indent=2, sort_keys=True) + "\n")

    for suffix in (".circles.txt", ".cloud.txt", ".ppm", ".svg", ".stats.json"):
        print(f"wrote {cfg.out}{suffix}")
    rate = stats.words_visited / stats.wall_time if stats.wall_time > 0 else float("inf")
    print(
        f"visited {stats.words_visited} words, pruned {stats.branches_pruned}, "
        f"emitted {stats.circles_emitted} circles "
        f"({stats.depth_exhausted_branches} depth-exhausted branches)"
    )
    print(f"wall time {stats.wall_time:.3f}s ({rate:.0f} words/s)")
    return 0


def _cmd_verify_gasket(cfg: RunConfig, argv: list[str]) -> int:
    if cfg.input is None:
        raise _UsageError("verify-gasket needs an input packing file")
    packing = load_packing(_resolve_input(cfg.input))
    verdict = is_apollonian_like(
        packing, residual_tol=cfg.residual, tangency_tol=cfg.tol, normalize=cfg.normalize
    )
    doc = {
        "version": __version__,
        "command": "kleinlab " + " ".join(argv),
        "config": dict(cfg.echo_pairs()),
        "circles": len(packing.circles),
        "passed": verdict.passed,
        "connected": verdict.connected,
        "overlap_pairs": [list(p) for p in verdict.overlap_pairs[:20]],
        "worst_residual": verdict.worst_residual,
        "worst_quadruple": list(verdict.worst_quadruple) if verdict.worst_quadruple else None,
        "triangles_checked": verdict.triangles_checked,
        "quadruples_checked": verdict.quadruples_checked,
        "candidate_pairs": verdict.candidate_pairs,
        "tangent_pairs": verdict.tangent_pairs,
        "failures": list(verdict.failures),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        _write_atomic(cfg.out, text)
        print(f"wrote {cfg.out}")
    sys.stdout.write(text)
    return 0 if verdict.passed else 1


def _cmd_validate_gog(cfg: RunConfig, argv: list[str]) -> int:
    if cfg.input is None:
        raise _UsageError("validate-gog needs an input graph-of-groups file")
    ref = cfg.input
    if not os.path.exists(ref) and not ref.startswith("preset:") and "/" not in ref:
        ref = "preset:" + ref  # bare names fall back to bundled files
    graph = load_graph_of_groups(_resolve_input(ref, ".gog"))
    report = validate_bowditch(graph)
    lines = [
        f"vertices: {len(graph.vertices)}  edges: {len(graph.edges)}  "
        f"tree: {'yes' if graph.is_tree() else 'no'}"
    ]
    if report.passed:
        lines.append("pass")
    else:
        for v in report.violations:
            lines.append(f"fail clause ({v.clause}): {v.message}")
    body = "\n".join(lines) + "\n"
    _emit(cfg, _header_text(cfg, argv), body)
    if cfg.out:
        sys.stdout.write(body)
    return 0 if report.passed else 1


def _cmd_tree_limit(cfg: RunConfig, argv: list[str]) -> int:
    if cfg.input is None:
        raise _UsageError("tree-limit needs an input tree-system file")
    system = load_tree_system(_resolve_input(cfg.input))
    limit = tree_system_limit(system)
    lines = ["points " + " ".join(limit.points)]
    for row in limit.matrix():
        lines.append("row " + " ".join(str(x) for x in row))
    _emit(cfg, _header_text(cfg, argv), "\n".join(lines) + "\n")
    print(f"{len(limit.points)} quotient points")
    return 0


def _cmd_cuts(cfg: RunConfig, argv: list[str]) -> int:
    if cfg.input is None:
        raise _UsageError("cuts needs an input graph edge-list file")
    graph = load_simple_graph(_resolve_input(cfg.input))
    lines = []
    for v in sorted(graph.vertices):
        lines.append(
            f"vertex {v} local_cut_valency={local_cut_valency(graph, v)} "
            f"link_valency={link_valency(graph, v)}"
        )
    if len(graph.vertices) >= 4 and graph.is_connected():
        for cp in cut_pairs(graph):
            lines.append(
                f"cut-pair {cp.pair[0]} {cp.pair[1]} components={cp.components} "
                f"flagged={'true' if cp.flagged else 'false'}"
            )
    else:
        lines.append("cut-pair analysis skipped (needs a connected graph on >= 4 vertices)")
    _emit(cfg, _header_text(cfg, argv), "\n".join(lines) + "\n")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "points": _cmd_points,
    "dfs": _cmd_dfs,
    "verify-gasket": _cmd_verify_gasket,
    "validate-gog": _cmd_validate_gog,
    "tree-limit": _cmd_tree_limit,
    "cuts": _cmd_cuts,
}


def _make_parser() -> _Parser:
    parser = _Parser(prog="kleinlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"kleinlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", default=None, help="input file where applicable")
        for f in fields(RunConfig)[1:]:
            if f.name not in ("input", "normalize"):
                p.add_argument("--" + f.name, metavar=_METAVARS.get(f.name))
        p.add_argument("--config", metavar="PATH")
        p.add_argument("--normalize", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _build_config(args)
        return _COMMANDS[args.command](cfg, argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
