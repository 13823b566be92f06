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
import functools
import importlib
import itertools
import os
import sys
from typing import TYPE_CHECKING, NamedTuple

from . import __version__
from .groups import _format_lines, load_marking, solve_parabolic_commutator

if TYPE_CHECKING:
    from collections.abc import Iterable

    from .limitset import Rectangle

__all__ = ["main", "RunConfig", "load_config", "ConfigError", "UnknownKeyError"]

# The library names the handlers use -> their defining module.  Each handler
# imports its names where it runs, so a command loads only its own modules;
# `cli.<name>` reads the defining module on every access, so a wrapper set
# there is what both see.
_HANDLER_NAMES = {
    name: module
    for module, names in (
        ("decomposition", "cut_pairs link_valency load_graph_of_groups load_simple_graph "
                          "load_tree_system local_cut_valencies tree_system_limit "
                          "validate_bowditch"),
        ("gasket", "_packing_rows is_apollonian_like load_packing"),
        ("limitset", "DfsConfig Rectangle _raster_size _render limit_points_by_fixed_points "
                     "limit_set_dfs"),
    )
    for name in names.split()
}


def __getattr__(name: str):
    if name in _HANDLER_NAMES:
        return getattr(importlib.import_module("." + _HANDLER_NAMES[name], __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

class RunConfig(NamedTuple):
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
        for name, val in zip(self._fields[1:], self[1:]):
            if val is None or (name == "preset" and not val):
                continue
            if isinstance(val, bool):
                text = "true" if val else "false"
            elif name == "window":
                text = f"{val.x0!r},{val.y0!r},{val.x1!r},{val.y1!r}"
            else:
                text = str(val)
            pairs.append((name, text))
        return pairs


# Config-file keys: every knob but `preset`.
_KNOBS = RunConfig._fields[1:-1]
_DEPTH_DEFAULTS = {"points": 8, "dfs": 64}
# Help placeholders; a flag without one shows its name in capitals.
_METAVARS = {
    "window": "x0,y0,x1,y1", "out": "PATH", "seeds": "PATH", "marking": "PATH", "preset": "NAME",
}


def _parse_value(key: str, raw: str):
    if key in ("epsilon", "tol", "residual"):
        val = float(raw)
        if not 0.0 < val < float("inf"):
            raise ConfigError(f"{key} must be positive and finite, got {raw}")
        return val
    if key in ("depth", "resolution"):
        val = int(raw)
        if key == "depth" and val < 1:
            raise ConfigError(f"depth must be >= 1, got {raw}")
        if key == "resolution" and val < 16:
            raise ConfigError(f"resolution must be >= 16, got {raw}")
        return val
    if key == "window":
        from .limitset import Rectangle

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
    from importlib import resources

    path = resources.files("kleinlab").joinpath("presets", name)
    try:
        return path.read_text()
    except FileNotFoundError:
        raise _UsageError(f"no bundled preset file {name!r}") from None


def _resolve_input(ref: str, suffix: str = ".txt") -> str:
    """Read a path, or a bundled file via the preset:<name> scheme."""
    if ref.startswith("preset:"):
        name = ref.split(":", 1)[1]
        return _preset_text(name if name.endswith(suffix) else name + suffix)
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


def _write_atomic(path: str, data: str | bytes | Iterable[str]) -> None:
    """Write data to a temp file beside path and rename it over path, so
    path holds either its old bytes or all the new ones.  data is one str
    or bytes, or an iterable of str chunks, each encoded and written as it
    comes, so no whole copy of the artifact is held."""
    import tempfile

    chunks = [data] if isinstance(data, (str, bytes)) else data
    directory = os.path.dirname(os.path.abspath(path))
    # mkstemp creates the file 0600; give the artifact the mode open() would.
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kleinlab-")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode() if isinstance(chunk, str) else chunk)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
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


def _cloud_rows(xy, words: list[str]) -> str:
    """One 'x y word_length word' line per cloud point, '-' for the empty
    word.  xy holds each point's 'x y' already formatted, in %.17g, and
    'inf inf' for infinity."""
    return "".join(map("%s %d %s\n".__mod__, zip(xy, map(len, words), [w or "-" for w in words])))


def _cloud_text(xy, words: list[str]) -> str:
    """The cloud rows as an artifact body: a lone newline when there are none."""
    return _cloud_rows(xy, words) or "\n"


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
    from .limitset import limit_points_by_fixed_points

    group = _load_marked_group(cfg)
    cloud = limit_points_by_fixed_points(group, cfg.depth)
    xy = map("%.17g %.17g".__mod__, zip(cloud.z.real.tolist(), cloud.z.imag.tolist()))
    _emit(cfg, _header_text(cfg, argv), _cloud_text(xy, cloud.words))
    print(f"{len(cloud)} limit points at depth {cfg.depth}")
    return 0


def _cmd_dfs(cfg: RunConfig, argv: list[str]) -> int:
    import json
    from dataclasses import asdict

    from .gasket import _packing_rows, load_packing
    from .limitset import DfsConfig, _raster_size, _render, limit_set_dfs

    if not cfg.out:
        raise _UsageError("dfs needs --out (artifact base path)")
    if cfg.window is None:
        raise _UsageError("dfs needs --window x0,y0,x1,y1")
    _raster_size(cfg.window, cfg.resolution)  # an undrawable raster fails before the DFS
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
    commented = _commented(header, "")

    # The text artifacts go to the writer a block of rows at a time.  The
    # cloud is the centres it kept, which the circles rows have formatted:
    # each block's cloud rows wait here, as one string, for the cloud file.
    cloud_blocks: list[str] = []

    def circle_blocks():
        yield commented
        lo = 0
        for xy, rows in _packing_rows(result.packing):
            hi = lo + len(rows)
            words = result.words[lo:hi]
            flags = ["  depth-exhausted" if f else "" for f in result.depth_exhausted[lo:hi]]
            marks = [w or "-" for w in words]
            yield "".join(map("%s  # w=%s%s\n".__mod__, zip(rows, marks, flags)))
            keep = result.in_cloud[lo:hi]
            cloud_blocks.append(
                _cloud_rows(itertools.compress(xy, keep), list(itertools.compress(words, keep)))
            )
            lo = hi
        if not lo:
            yield "\n"

    _write_atomic(cfg.out + ".circles.txt", circle_blocks())
    cloud_body = cloud_blocks if any(cloud_blocks) else ["\n"]
    _write_atomic(cfg.out + ".cloud.txt", [commented, *cloud_body])
    cloud_blocks.clear()

    ppm, svg = _render(result.packing, result.in_cloud, cfg.window, cfg.resolution, header)
    _write_atomic(cfg.out + ".ppm", ppm)
    del ppm  # freed before the SVG, which is formatted as it is written
    _write_atomic(cfg.out + ".svg", svg)

    stats = result.stats
    counters = asdict(stats)
    del counters["wall_time"]  # timing stays out of the artifacts
    stats_doc = {
        "version": __version__,
        "command": "kleinlab " + " ".join(argv),
        "config": dict(cfg.echo_pairs()),
        "stats": counters,
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
    import json
    from dataclasses import asdict, replace

    from .gasket import is_apollonian_like, load_packing

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
        "circles": len(packing),
        **asdict(replace(verdict, overlap_pairs=verdict.overlap_pairs[:20])),
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if cfg.out:
        _write_atomic(cfg.out, text)
        print(f"wrote {cfg.out}")
    sys.stdout.write(text)
    return 0 if verdict.passed else 1


def _cmd_validate_gog(cfg: RunConfig, argv: list[str]) -> int:
    from .decomposition import load_graph_of_groups, validate_bowditch

    if cfg.input is None:
        raise _UsageError("validate-gog needs an input graph-of-groups file")
    ref = cfg.input
    if os.path.exists(ref) or ref.startswith("preset:") or "/" in ref:
        text = _resolve_input(ref, ".gog")
    else:  # bare names fall back to bundled files
        try:
            text = _resolve_input("preset:" + ref, ".gog")
        except _UsageError:
            raise _UsageError(f"no file or bundled preset named {ref!r}") from None
    graph = load_graph_of_groups(text)
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
    from .decomposition import load_tree_system, tree_system_limit

    if cfg.input is None:
        raise _UsageError("tree-limit needs an input tree-system file")
    system = load_tree_system(_resolve_input(cfg.input))
    limit = tree_system_limit(system)
    lines = ["points " + " ".join(limit.points)]
    lines += ["row " + text for text in limit.row_texts()]
    _emit(cfg, _header_text(cfg, argv), "\n".join(lines) + "\n")
    print(f"{len(limit.points)} quotient points")
    return 0


def _cmd_cuts(cfg: RunConfig, argv: list[str]) -> int:
    from .decomposition import cut_pairs, link_valency, load_simple_graph, local_cut_valencies

    if cfg.input is None:
        raise _UsageError("cuts needs an input graph edge-list file")
    graph = load_simple_graph(_resolve_input(cfg.input))
    valency = local_cut_valencies(graph)
    lines = []
    for v in sorted(graph.vertices):
        lines.append(
            f"vertex {v} local_cut_valency={valency[v]} "
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


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def _make_parser() -> _Parser:
    parser = _Parser(prog="kleinlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"kleinlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("input", nargs="?", default=None, help="input file where applicable")
        for name in RunConfig._fields[1:]:
            if name not in ("input", "normalize"):
                p.add_argument("--" + name, metavar=_METAVARS.get(name))
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
