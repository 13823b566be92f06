"""The text formats share one line reader: `#` comments and blank lines are
skipped, and errors name the line number of the first bad line."""

import random
import re
import tracemalloc

import pytest

from kleinlab import groups
from kleinlab.cli import load_config
from kleinlab.decomposition import load_graph_of_groups, load_simple_graph, load_tree_system
from kleinlab.gasket import load_packing
from kleinlab.groups import _format_lines, load_marking
from kleinlab.mobius import DegenerateMatrixError

# loader, one good line, one bad line, the error for a bad line 5, a check on
# what the good line parses to
LOADERS = {
    "packing": (
        load_packing, "C 0 0 1", "Q 1 2 3",
        "line 5: expected 'C re im radius' or 'L re im offset'",
        lambda packing: len(packing.circles) == 1,
    ),
    "config": (
        load_config, "epsilon=0.5", "bogus",
        "<config>:5: expected key=value, got 'bogus'",
        lambda cfg: cfg == {"epsilon": 0.5},
    ),
    "graph-of-groups": (
        load_graph_of_groups, "vertex R rigid", "vertex Q weird",
        "line 5: unknown vertex type 'weird'",
        lambda graph: list(graph.vertices) == ["R"],
    ),
    "edge-list": (
        load_simple_graph, "a b", "a b c",
        "line 5: expected 'u v'",
        lambda graph: graph.vertices == ("a", "b") and graph.edge_count() == 1,
    ),
}


@pytest.mark.parametrize("loader, good, bad, message, check", LOADERS.values(), ids=LOADERS)
def test_loader_skips_comments_and_names_first_bad_line(loader, good, bad, message, check):
    assert check(loader(f"# header\n\n{good}  # trailing comment\n   \n"))
    with pytest.raises(ValueError, match=re.escape(message)):
        loader(f"# header\n\n{good}  # trailing comment\n   \n{bad}\n{bad} # again\n")


@pytest.mark.parametrize(
    "loader, text, error, message",
    [
        (load_packing, "C 0 0 1\nL 0 0 1\n", ValueError, "line 2: line normal must be nonzero"),
        (load_packing, "# c\nC 0 0 nan\n", ValueError, "line 2: radius must be positive, got nan"),
        (load_packing, "\nC x 0 1\n", ValueError, "line 2: could not convert string to float: 'x'"),
        (
            load_marking,
            "gen a = [[1,0],[0,0];[0,0],[1,0]]\ngen b = [[1,0],[x,0];[0,0],[1,0]]\n",
            ValueError,
            "line 2: could not convert string to float: 'x'",
        ),
        # A singular image keeps its error class.
        (
            load_marking,
            "# singular\ngen a = [[1,0],[2,0];[1,0],[2,0]]\n",
            DegenerateMatrixError,
            "line 2: determinant 0j too small",
        ),
        (
            load_marking,
            "gen a = [[1,0],[0,0];[0,0],[1,0]]\n\ngen b = [[1,0],[nan,0];[0,0],[1,0]]\n",
            DegenerateMatrixError,
            "line 3: matrix entries must be finite",
        ),
        # A bad integer or rational names its line too.
        (load_tree_system, "space s 2\nrow 0 1/0\nrow 1/0 0\n", ValueError,
         "line 2: expected a rational, got '1/0'"),
        (load_tree_system, "# one space\nspace s x\n", ValueError,
         "line 2: expected an integer, got 'x'"),
        (load_graph_of_groups, "vertex a rigid slots=x\n", ValueError,
         "line 1: expected an integer, got 'x'"),
        (
            load_graph_of_groups,
            "vertex a rigid\nvertex h hanging-fuchsian slots=2\n\nedge a h twoended=false slot=x\n",
            ValueError,
            "line 4: expected an integer, got 'x'",
        ),
    ],
    ids=[
        "zero-normal", "nan-radius", "packing-float", "marking-float", "singular-gen", "nan-gen",
        "tree-zero-denominator", "tree-space-size", "gog-slots", "gog-edge-slot",
    ],
)
def test_packing_and_marking_errors_name_the_line(loader, text, error, message):
    with pytest.raises(error, match=re.escape(message)):
        loader(text)


def test_tree_system_rows_skip_comments_and_blank_lines():
    system = load_tree_system(
        "space A 2  # two points\n# rows follow\nrow 0 1\n\nrow 1 0\n"
        "space B 1\n\nrow 0\ntree-edge A B\nglue A B 1 0  # identify\n"
    )
    assert system.spaces["A"].distance("0", "1") == 1
    assert system.spaces["B"].points == ("0",)


def test_tree_system_empty_space_takes_no_row():
    with pytest.raises(ValueError, match="points must be nonempty and distinct"):
        load_tree_system("space A 0\nrow 0\n")



def test_tree_system_errors_name_the_line():
    header = "# tree system\nspace A 2\nrow 0 1\n\nrow 1 0\n"
    with pytest.raises(ValueError, match=re.escape("line 6: cannot parse 'frob x'")):
        load_tree_system(header + "frob x\n")
    with pytest.raises(
        ValueError, match=re.escape("line 8: space B: expected 'row' with 2 entries")
    ):
        load_tree_system(header + "space B 2\n# first row\nrow 0 1 2\nrow 1 0\n")
    with pytest.raises(ValueError, match=re.escape("line 6: space B: missing rows")):
        load_tree_system(header + "space B 2\nrow 0 1\n")


# Every line boundary of str.splitlines.
BOUNDARIES = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def numbered_lines(text):
    """The reference reader: one splitlines() of the whole text."""
    out = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((i, line))
    return out


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, groups._LINE_CHUNK])
def test_format_lines_keeps_the_lines_and_numbers_of_splitlines(chunk, monkeypatch):
    # Small chunks put every boundary, and each half of a "\r\n", at a chunk
    # edge somewhere.
    monkeypatch.setattr(groups, "_LINE_CHUNK", chunk)
    texts = ["", "\n", "x", "x\n"]
    for b in BOUNDARIES:
        texts += [b, b * 3, f"a{b}b", f"a{b}{b}b #c{b}", f"{b}a{b}", f"a\r{b}b", f"a{b}\nb"]
    rng = random.Random(20261020)
    pieces = ("x", "y z", " # c", "#", "  ", "abcdef", *BOUNDARIES)
    texts += ["".join(rng.choices(pieces, k=rng.randrange(40))) for _ in range(400)]
    for text in texts:
        assert list(_format_lines(text)) == numbered_lines(text), repr(text)


# tracemalloc peak of load_packing, in bytes per row, on the generated
# packing below (30,000 rows with `# w=` comments as dfs writes them, about
# 2.8 MB): 113, set by the parsed doubles and the triples' temporaries.  It
# was 174 when the whole text was split into a list of lines first, and 155
# with that list gone but a negated copy of the table made.  The bound is
# about 1.25 times the measured figure.
LOAD_PACKING_PEAK_BYTES_PER_ROW = 140


def test_load_packing_peak_memory_per_row():
    rng = random.Random(5)
    rows = 30_000
    text = "# generated\n" + "".join(
        "C %.17g %.17g %.17g  # w=%s\n" % (
            rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(1e-3, 1e-1),
            "".join(rng.choices("aAbB", k=rng.randrange(8, 40))),
        )
        for _ in range(rows)
    )
    load_packing("C 0 0 1\n")  # imports and caches are not counted
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        packing = load_packing(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(packing) == rows
    assert (peak - start) / rows < LOAD_PACKING_PEAK_BYTES_PER_ROW
