"""Seeded benchmark inputs and the oracles that check outputs built from them.

The workload seed only relabels and reorders: the seed circles, the packing
rows, the tree system and the graph keep one shape for every seed, so each
seed costs the program the same work.  The same seed gives the same input
bytes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from importlib import resources
from itertools import combinations

# Shape of the generated tree system: criterion 7 draws 1-5 spaces of 2-6
# points; this one is fixed at the top of that range and beyond it.
TREE_SHAPE_SEED = 20261017
TREE_SPACES = 10
TREE_SPACE_SIZES = (6, 9)
# Generations of bounded_gasket whose subdivided tangency graph `cuts` reads.
GASKET_GENERATIONS = 2


def _rows(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.split("#", 1)[0].strip()]


def _hw_seed_rows() -> list[str]:
    return _rows(resources.files("kleinlab").joinpath("presets", "hw-seeds.txt").read_text())


def hw_seeds_text(seed: int) -> str:
    """The bundled hw-gasket seed circles, in a seed-chosen order."""
    rows = _hw_seed_rows()
    random.Random(seed).shuffle(rows)
    return f"# hw-gasket seeds, order from seed {seed}\n" + "\n".join(rows) + "\n"


def _values(row: str) -> tuple[str, float, float, float]:
    kind, x, y, v = row.split("#", 1)[0].split()
    return kind, float(x), float(y), float(v)


def _same_circle(a, b) -> bool:
    return a[0] == b[0] and all(abs(p - q) <= 1e-12 * max(1.0, abs(q)) for p, q in zip(a[1:], b[1:]))


def shuffled_packing_text(text: str, seed: int) -> str:
    """A packing file with its rows in a seed-chosen order, except that the
    hw-gasket seed circles lead, in preset order.  verify-gasket normalizes
    on the index-first mutually tangent triple, which is then always two
    seed lines and a seed circle, so every seed maps the packing the same
    way and costs the verifier the same work."""
    anchors = [_values(r) for r in _hw_seed_rows()]
    lead: list[str | None] = [None] * len(anchors)
    rest = []
    for row in _rows(text):
        vals = _values(row)
        k = next((k for k, a in enumerate(anchors) if lead[k] is None and _same_circle(vals, a)), None)
        if k is None:
            rest.append(row)
        else:
            lead[k] = row
    if None in lead:
        raise ValueError("packing lacks a hw-gasket seed circle")
    random.Random(seed).shuffle(rest)
    return f"# packing rows, order from seed {seed}\n" + "\n".join(lead + rest) + "\n"


def _closure(n: int, weights: dict[tuple[int, int], Fraction]) -> list[list[Fraction]]:
    """Shortest-path metric of a connected weighted graph (Floyd-Warshall);
    pairs missing from weights start unreachable."""
    d = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for (i, j), w in weights.items():
        d[i][j] = d[j][i] = w
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di = d[i]
            dik = di[k]
            if dik is None:
                continue
            for j in range(n):
                if dk[j] is None:
                    continue
                via = dik + dk[j]
                if di[j] is None or via < di[j]:
                    di[j] = via
    return d


def _tree_shape():
    """Spaces (as distance matrices), tree edges and gluings, before any
    relabelling.  Drawn once from a fixed seed."""
    rng = random.Random(TREE_SHAPE_SEED)
    spaces = []
    for _ in range(TREE_SPACES):
        size = rng.randint(*TREE_SPACE_SIZES)
        weights = {
            (i, j): Fraction(rng.randint(1, 12), rng.randint(1, 4))
            for i, j in combinations(range(size), 2)
        }
        spaces.append(_closure(size, weights))
    edges = []
    for t in range(1, TREE_SPACES):
        parent = rng.randrange(t)
        k = rng.randint(1, 3)
        left = rng.sample(range(len(spaces[parent])), k)
        right = rng.sample(range(len(spaces[t])), k)
        edges.append((parent, t, list(zip(left, right))))
    return spaces, edges


def tree_system_text(seed: int) -> str:
    """The fixed tree system with space names, point labels and line order
    drawn from the seed, in `kleinlab tree-limit` input format."""
    spaces, edges = _tree_shape()
    rng = random.Random(seed)
    names = [f"K{k:02d}" for k in range(len(spaces))]
    rng.shuffle(names)
    # relabel[t][old point] = new point; the matrix is permuted to match.
    relabel = []
    for m in spaces:
        perm = list(range(len(m)))
        rng.shuffle(perm)
        relabel.append(perm)
    blocks = []
    for t, m in enumerate(spaces):
        n = len(m)
        inv = [0] * n
        for old, new in enumerate(relabel[t]):
            inv[new] = old
        rows = [" ".join(str(m[inv[i]][inv[j]]) for j in range(n)) for i in range(n)]
        blocks.append(f"space {names[t]} {n}\n" + "".join(f"row {r}\n" for r in rows))
    rng.shuffle(blocks)
    links = []
    for parent, child, pairs in edges:
        if rng.random() < 0.5:
            a, b, pairs = parent, child, pairs
        else:
            a, b, pairs = child, parent, [(q, p) for p, q in pairs]
        lines = [f"tree-edge {names[a]} {names[b]}"]
        lines += [f"glue {names[a]} {names[b]} {relabel[a][p]} {relabel[b][q]}" for p, q in pairs]
        links.append("\n".join(lines) + "\n")
    rng.shuffle(links)
    return f"# tree system, labels from seed {seed}\n" + "".join(blocks) + "".join(links)


def tree_limit_oracle(text: str) -> tuple[list[str], list[list[Fraction]]]:
    """Quotient points and metric of a tree-system file, by union-find and
    Floyd-Warshall: independent of the Dijkstra in kleinlab.decomposition."""
    spaces: dict[str, list[list[Fraction]]] = {}
    glue: list[tuple[str, str, str, str]] = []
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    i = 0
    while i < len(lines):
        head = lines[i]
        i += 1
        if head[0] == "space":
            n = int(head[2])
            spaces[head[1]] = [[Fraction(x) for x in lines[i + r][1:]] for r in range(n)]
            i += n
        elif head[0] == "glue":
            glue.append(tuple(head[1:]))
    nodes = [(t, str(p)) for t in sorted(spaces) for p in range(len(spaces[t]))]
    root = {x: x for x in nodes}

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for t1, t2, p, q in glue:
        a, b = find((t1, p)), find((t2, q))
        if a != b:
            root[max(a, b)] = min(a, b)
    classes = sorted({find(x) for x in nodes})
    index = {c: k for k, c in enumerate(classes)}
    weights: dict[tuple[int, int], Fraction] = {}
    for t, m in spaces.items():
        for p, q in combinations(range(len(m)), 2):
            i1, i2 = index[find((t, str(p)))], index[find((t, str(q)))]
            if i1 == i2:
                continue
            key = (min(i1, i2), max(i1, i2))
            if key not in weights or m[p][q] < weights[key]:
                weights[key] = m[p][q]
    return [f"{t}:{p}" for t, p in classes], _closure(len(classes), weights)


def parse_tree_limit(text: str) -> tuple[list[str], list[list[Fraction]]]:
    """Points and matrix from a `kleinlab tree-limit` output file."""
    points: list[str] = []
    rows: list[list[Fraction]] = []
    for line in text.splitlines():
        if line.startswith("points "):
            points = line.split()[1:]
        elif line.startswith("row "):
            rows.append([Fraction(x) for x in line.split()[1:]])
    return points, rows


def gasket_graph_text(seed: int) -> tuple[str, set[str]]:
    """The tangency graph of bounded_gasket(GASKET_GENERATIONS) with every
    tangency edge subdivided, vertices relabelled and edges reordered by the
    seed.
    Returns the edge-list text and the labels of the subdivision vertices."""
    from kleinlab.gasket import bounded_gasket, detect_tangencies

    graph = detect_tangencies(bounded_gasket(GASKET_GENERATIONS))
    names = [f"c{i}" for i in range(graph.n)] + [f"t{e.i}_{e.j}" for e in graph.edges]
    rng = random.Random(seed)
    labels = [f"v{k:03d}" for k in range(len(names))]
    rng.shuffle(labels)
    label = dict(zip(names, labels))
    edges = []
    for e in graph.edges:
        t = label[f"t{e.i}_{e.j}"]
        edges.append((label[f"c{e.i}"], t))
        edges.append((t, label[f"c{e.j}"]))
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    rng.shuffle(edges)
    text = (f"# subdivided bounded_gasket({GASKET_GENERATIONS}) tangency graph,"
            f" labels from seed {seed}\n")
    text += "".join(f"{a} {b}\n" for a, b in edges)
    subdivision = {label[f"t{e.i}_{e.j}"] for e in graph.edges}
    return text, subdivision
