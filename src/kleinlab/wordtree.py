"""The orbit DFS's word tree and triple set: `limitset._preorder`'s traversal.

`_WordTree` grows the seeds' reduced-word tree a level at a time in numpy
and replays the stack preorder over its node ids, so that its decisions
are the preorder's own.  `_KeyTable` numbers the bulk nodes' rounded keys
exactly, in one sorted column of their hashes, and its finish hands them
to the `_TripleSet` that the replay decides in.
"""

from __future__ import annotations

import bisect
import itertools
import struct
from array import array
from typing import TYPE_CHECKING

from .mobius import _transport, _transport_coeffs

if TYPE_CHECKING:
    from .groups import MarkedGroup
    from .limitset import DfsConfig

__all__: list[str] = []


# The narrowest level _WordTree grows in bulk, counted in nodes.  A narrower
# level and everything below it is left to the replay, which expands each
# node it accepts there on the spot: a numpy pass over a handful of nodes
# costs more than the scalar step.
_BULK_WIDTH = 8
# The odd multipliers of _key_hashes: one per component, then the two of
# the 64-bit finalizer of MurmurHash3.
_KEY_MIX = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9, 0x27D4EB2F165667C5)
_FMIX = (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53)
_MASK64 = (1 << 64) - 1
# A rounded triple as 32 bytes, four little-endian int64s.
_KEY = struct.Struct("<4q")
# A node's code in _WordTree.code when the replay cannot decide it from
# its key id: disc <= 0, or a triple that try_add decides.
_PRUNED = -1
_SCALAR = -2


def _small(A, Bre, Bim, C, eps2):
    """The prune rule's two tests of triples, floats or arrays alike: disc
    = |B|^2 - AC, and whether each is small, 16 disc < eps^2 (4|B|^2 +
    (A - C)^2): a chordal diameter below eps."""
    bb = Bre * Bre + Bim * Bim
    disc = bb - A * C
    ac = A - C
    return disc, 16.0 * disc < eps2 * (4.0 * bb + ac * ac)


def _key_hashes(keys):
    """A 64-bit hash of each row of an (n, 4) int64 key array, as uint64s:
    the sum mod 2**64 of the components times odd constants, mixed by
    MurmurHash3's finalizer, so that keys on a lattice, as integral orbits
    make them, spread out.  A sum, not an xor: xor-ed products of small
    components cancel, so a small lattice got few distinct hashes."""
    import numpy as np

    u = keys.view(np.uint64)
    h = u[:, 0] * np.uint64(_KEY_MIX[0])
    for j in (1, 2, 3):
        h += u[:, j] * np.uint64(_KEY_MIX[j])
    s33 = np.uint64(33)
    for m in _FMIX:
        h ^= h >> s33
        h *= np.uint64(m)
    h ^= h >> s33
    return h


def _key_hash(key: bytes) -> int:
    """_key_hashes of one key packed by _triple_key."""
    h = 0
    for k, m in zip(_KEY.unpack(key), _KEY_MIX):
        h = (h + k * m) & _MASK64
    for m in _FMIX:
        h = (h ^ h >> 33) * m & _MASK64
    return h ^ h >> 33


def _rounded_keys(A, Bre, Bim, C):
    """_TripleSet.try_add's rounding rule over float arrays of one length:
    each row's sign-canonical rounded components as an (n, 4) int64 array,
    whether try_add would probe a neighbour key for it, and whether its key
    is packed.  A row that is not packed, non-finite or with a component
    past int64, is try_add's own to decide: its key row is 0.
    """
    import numpy as np

    # try_add's tuple comparison: the first component that differs from
    # 0.0, NaN included, decides the sign.
    neg = (A < 0.0) | (A == 0.0) & (
        (Bre < 0.0) | (Bre == 0.0) & ((Bim < 0.0) | (Bim == 0.0) & (C < 0.0))
    )
    q = np.stack((A, Bre, Bim, C), axis=1)
    np.negative(q, out=q, where=neg[:, None])
    q /= _TripleSet.GRID
    k = np.rint(q)  # round() rounds half to even too
    packed = ((k >= -(2.0**63)) & (k < 2.0**63)).all(axis=1)
    with np.errstate(invalid="ignore"):  # inf - inf
        near = (np.abs(q - k) > 0.49).any(axis=1)
    k[~packed] = 0.0
    return k.astype(np.int64), near, packed


class _WordTree:
    """The seeds' reduced-word tree of _preorder, over node ids.

    Bulk nodes come level by level, each level in preorder: the seeds,
    then the children of the level before's grown nodes, parents in order
    and letters in rank order.  One numpy pass per level transports the
    children, tests disc and smallness (_small), and takes _TripleSet's
    keys (_rounded_keys).  A level narrower than _BULK_WIDTH nodes is not
    grown.

    The bulk dedup is speculative.  When a key recurs, the node earlier in
    preorder keeps it, found by comparing the two nodes' ancestors at the
    shallower level, and only keepers that neither are small nor sit at
    max_depth grow children.  That stops stabilizer loops such as a L = L.
    A keeper that loses its key later is demoted, and its subtree stops
    growing.  The guesses can be wrong, since the builder does not know
    which nodes the preorder reaches, so replay decides every node again.

    `code[v]` is 2 * (v's key id) + whether v stops (small or at
    max_depth), or _PRUNED, or _SCALAR for the nodes try_add decides: a
    key next to a rounding boundary, one that is not packed, or one whose
    hash a different key holds, so that it has no id and neither keeps
    its key nor grows.  `triples` holds the bulk nodes' keys, numbered by
    _KeyTable, and is the set replay decides in.  `first[v]` is v's first
    child, or -1.  The nodes that replay records below a node that was not
    grown follow the bulk ones, in `extra`.
    """

    def __init__(self, group: MarkedGroup, config: DfsConfig):
        import numpy as np

        letters = group.alphabet.letters
        self.inverse = [group.alphabet.letter_rank(x.swapcase()) for x in letters]
        self.gen = [_transport_coeffs(group.letter_map(x)) for x in letters]
        self.eps2 = config.epsilon * config.epsilon
        self.max_depth = config.max_depth
        self.seeds = len(config.seeds)
        # The rows replay records on demand: A, Re B, Im B and C of each,
        # and its parent, rank and depth.
        self.extra = array("d")
        self.extra_links = array("q")
        keys = _KeyTable()
        seeds = np.array([(c.A, c.B.real, c.B.imag, c.C) for c in config.seeds]).T
        with np.errstate(all="ignore"):  # as with Python floats, overflow is silent
            self._grow(seeds.reshape(4, -1), keys)
        self.triples = keys.finish()

    def _grow(self, cols, keys):
        import numpy as np

        nletters = len(self.gen)
        coeffs = np.array(self.gen).T
        inverse = np.array([*self.inverse, -1])
        parent = np.full(cols.shape[1], -1, dtype=np.int32)
        rank = np.full(cols.shape[1], -1, dtype=np.int8)
        starts = [0]
        levels = {name: [] for name in ("cols", "parent", "rank", "first", "code", "out")}
        while True:
            depth, base, n = len(starts) - 1, starts[-1], cols.shape[1]
            A, Bre, Bim, C = cols
            disc, small = _small(A, Bre, Bim, C, self.eps2)
            stop = small | (depth >= self.max_depth)
            rounded, near, packed = _rounded_keys(A, Bre, Bim, C)
            keyed = np.flatnonzero((disc > 0.0) & packed)
            node = base + keyed
            ids, keep = keys.enter(rounded[keyed], node, depth)
            del rounded
            code = np.where(disc > 0.0, _SCALAR, _PRUNED).astype(np.int32)
            fast = ~near[keyed] & (ids >= 0)
            code[keyed[fast]] = 2 * ids[fast] + stop[keyed[fast]]
            first = np.full(n, -1, dtype=np.int32)
            out = np.zeros(n, dtype=bool)  # demoted: it lost its key to a node before it
            for name, value in zip(levels, (cols, parent, rank, first, code, out)):
                levels[name].append(value)
            starts.append(base + n)

            # A key's first node in this level keeps it, unless the node of
            # an earlier level that holds it comes first in preorder.
            hit = np.flatnonzero(~keep & (ids >= 0))
            owner, owner_depth = keys.node[ids[hit]], keys.depth[ids[hit]]
            earlier = owner_depth < depth
            hit, owner, owner_depth = hit[earlier], owner[earlier], owner_depth[earlier]
            beat = np.zeros(0, dtype=bool)
            if len(hit):
                ancestor = node[hit]
                for d in range(depth, int(owner_depth.min()), -1):
                    up = owner_depth < d
                    ancestor[up] = levels["parent"][d][ancestor[up] - starts[d]]
                # Each level is in preorder, and an owner that is the
                # ancestor itself comes first.  An owner below a demoted
                # node is never reached, so it loses too.
                beat = (ancestor < owner) | _below(levels, starts, owner, owner_depth)
                # Of equal keys in this level, the first takes it.
                taken, at = np.unique(ids[hit[beat]], return_index=True)
                keep[hit[beat][at]] = True
                keys.node[taken] = node[hit[beat][at]]
                keys.depth[taken] = depth
                owner, owner_depth = owner[beat][at], owner_depth[beat][at]

            grown = keyed[keep]
            grown = grown[~stop[grown]]
            if beat.any():
                # A demoted owner's subtree stops growing: it lost to a node
                # before it, so the preorder never reaches that subtree.
                for d in np.unique(owner_depth).tolist():
                    levels["out"][d][owner[owner_depth == d] - starts[d]] = True
                grown = grown[~_below(levels, starts, base + grown, depth, int(owner_depth.min()))]
            kids = nletters if depth == 0 else nletters - 1
            if not len(grown) or len(grown) * kids < _BULK_WIDTH:
                break
            first[grown] = starts[-1] + kids * np.arange(len(grown), dtype=np.int32)
            row, letter = np.nonzero(np.arange(nletters) != inverse[rank[grown]][:, None])
            at_parent = grown[row]
            cols = np.array(
                _transport(coeffs[:, letter], A[at_parent], Bre[at_parent], Bim[at_parent], C[at_parent])
            )
            parent = (base + at_parent).astype(np.int32)
            rank = letter.astype(np.int8)

        # The columns, one level at a time, so that no second copy is held.
        self.cols = np.empty((4, starts[-1]))
        for k, level in enumerate(levels["cols"]):
            self.cols[:, starts[k] : starts[k + 1]] = level
            levels["cols"][k] = None
        join = np.concatenate
        self.code = array("i", join(levels.pop("code")).tobytes())
        self.first = array("i", join(levels.pop("first")).tobytes())
        self.parent = join(levels.pop("parent"))
        self.rank = join(levels.pop("rank"))
        self.starts = starts[:-1]

    def replay(self):
        """The node ids _preorder records, in its order.  A node with a
        key id is decided by that id's flag in `triples.seen`, any other by
        try_add; below an accepted node that was not grown, _descend runs
        the rule."""
        code, first, seeds = self.code, self.first, self.seeds
        more = len(self.gen) - 2  # children past the first, a seed's less one
        triples = self.triples
        seen = triples.seen
        accept, descend = self._accept, self._descend
        order = array("i")
        record = order.append
        stack = [-1, *range(seeds - 1, -1, -1)]  # the -1 under the seeds ends the walk
        pop, push = stack.pop, stack.extend
        for v in iter(pop, -1):
            c = code[v]
            if c >= 0:
                k = c >> 1
                if seen[k]:
                    continue
                seen[k] = 1
                record(v)
                if c & 1:
                    continue
            elif c == _PRUNED or not accept(v, triples, record):
                continue
            f = first[v]
            if f < 0:
                descend(v, triples, record)
            else:
                push(range(f + more + (v < seeds), f - 1, -1))
        return order

    def _accept(self, v, triples, record) -> bool:
        """The rule for bulk node v, coded _SCALAR and so with disc > 0,
        through try_add; whether its children follow."""
        A, Bre, Bim, C = self.cols[:, v].tolist()
        if not triples.try_add(A, Bre, Bim, C):
            return False
        record(v)
        if _small(A, Bre, Bim, C, self.eps2)[1]:
            return False
        return bisect.bisect_right(self.starts, v) - 1 < self.max_depth

    def _descend(self, v, triples, record) -> None:
        """The rule over the subtree of accepted bulk node v, which was not
        grown, one node at a time in scalar arithmetic.  Each row it
        records is appended to `extra`, its id following the bulk ones."""
        gen, inverse, eps2, max_depth = self.gen, self.inverse, self.eps2, self.max_depth
        try_add, extend, link = triples.try_add, self.extra.extend, self.extra_links.extend
        letters = range(len(gen) - 1, -1, -1)
        node = self.cols.shape[1] + len(self.extra) // 4  # the next row's id
        A, Bre, Bim, C = self.cols[:, v].tolist()
        skip = self.inverse[self.rank[v]] if v >= self.seeds else -1
        depth = bisect.bisect_right(self.starts, v)  # its children's
        stack = [(_transport(gen[x], A, Bre, Bim, C), v, x, depth) for x in letters if x != skip]
        pop, push = stack.pop, stack.append
        while stack:
            row, parent, rank, depth = pop()
            A, Bre, Bim, C = row
            disc, small = _small(A, Bre, Bim, C, eps2)
            if not disc > 0.0 or not try_add(A, Bre, Bim, C):
                continue
            extend(row)
            link((parent, rank, depth))
            record(node)
            if not (small or depth >= max_depth):
                skip = inverse[rank]
                for x in letters:
                    if x != skip:
                        push((_transport(gen[x], A, Bre, Bim, C), node, x, depth + 1))
            node += 1

    def columns(self):
        """Every node's row (as a (4, n) array), parent, rank and depth,
        bulk then recorded on demand."""
        import numpy as np

        bulk = self.cols.shape[1]
        depth = np.repeat(np.arange(len(self.starts), dtype=np.int32), np.diff(self.starts, append=bulk))
        if not self.extra:
            return self.cols, self.parent, self.rank, depth
        parent, rank, extra_depth = np.frombuffer(self.extra_links, dtype=np.int64).reshape(-1, 3).T
        return (
            np.concatenate((self.cols, np.frombuffer(self.extra).reshape(-1, 4).T), axis=1),
            np.concatenate((self.parent, parent.astype(np.int32))),
            np.concatenate((self.rank, rank.astype(np.int8))),
            np.concatenate((depth, extra_depth.astype(np.int32))),
        )


def _below(levels, starts, nodes, depth, lowest=0):
    """Which nodes, at the given depths, have a demoted ancestor at depth
    lowest or deeper, themselves included."""
    import numpy as np

    depth = np.broadcast_to(depth, nodes.shape)
    dead = np.zeros(len(nodes), dtype=bool)
    if not len(nodes):
        return dead
    nodes = nodes.copy()
    for d in range(int(depth.max()), lowest - 1, -1):
        at = np.flatnonzero(depth >= d)
        local = nodes[at] - starts[d]
        dead[at] |= levels["out"][d][local]
        if d:
            nodes[at] = levels["parent"][d][local]
    return dead


class _KeyTable:
    """The bulk nodes' keys, numbered exactly: sorted columns of _key_hashes
    tags, each tag's id beside it, and each id's key, so that a row whose
    tag a different key holds gets no id.  Ids do not follow arrival order.
    While the levels grow, `node[k]` and `depth[k]` are the node that keeps
    key k.

    The tags are held in two sorted columns: `tags` and a short `recent`
    one that takes each level's fresh tags.  `recent` goes into `tags` once
    it outgrows an eighth of it, and at finish, so that a narrow level does
    not copy every tag held."""

    def __init__(self):
        import numpy as np

        self.count = 0
        self.tags = self.recent = np.zeros(0, dtype=np.uint64)
        self.ids = self.recent_ids = np.zeros(0, dtype=np.int32)
        self.keys = np.zeros((1 << 11, 4), dtype=np.int64)
        self.node = np.zeros(1 << 11, dtype=np.int32)
        self.depth = np.zeros(1 << 11, dtype=np.int32)

    def enter(self, keys, node, depth: int):
        """The id of each key row, in order, or -1 when a different key
        holds its tag; a key whose tag is not held yet enters with the
        first of its rows as its node, at depth.  Also returns which rows
        entered."""
        import numpy as np

        tags, inverse = np.unique(_key_hashes(keys), return_inverse=True)
        # Each tag's first row; return_index would sort stably, 4x slower.
        first = np.full(len(tags), len(keys))
        np.minimum.at(first, inverse, np.arange(len(keys)))
        ids = np.full(len(tags), -1, dtype=np.int32)
        for held, held_ids in ((self.tags, self.ids), (self.recent, self.recent_ids)):
            if len(held):
                at = np.minimum(np.searchsorted(held, tags), len(held) - 1)
                hit = held[at] == tags
                ids[hit] = held_ids[at[hit]]
        fresh = ids < 0
        start, self.count = self.count, self.count + int(fresh.sum())
        new = np.arange(start, self.count, dtype=np.int32)
        ids[fresh] = new
        if self.count > len(self.keys):
            more = self.count + self.count // 4 - len(self.keys)
            self.keys = np.pad(self.keys, ((0, more), (0, 0)))
            self.node, self.depth = np.pad(self.node, (0, more)), np.pad(self.depth, (0, more))
        rows = first[fresh]
        held = slice(start, self.count)
        self.keys[held], self.node[held], self.depth[held] = keys[rows], node[rows], depth
        at = np.searchsorted(self.recent, tags[fresh])
        self.recent = np.insert(self.recent, at, tags[fresh])
        self.recent_ids = np.insert(self.recent_ids, at, new)
        if len(self.recent) > len(self.tags) // 8:
            self._merge()
        entered = np.zeros(len(keys), dtype=bool)
        entered[rows] = True
        ids = ids[inverse]
        # A row that did not enter may hold another key with its tag.
        other = np.flatnonzero(~entered)
        ids[other[(self.keys[ids[other]] != keys[other]).any(axis=1)]] = -1
        return ids, entered

    def _merge(self) -> None:
        """Move the recent tags into the main column."""
        import numpy as np

        at = np.searchsorted(self.tags, self.recent)
        self.tags = np.insert(self.tags, at, self.recent)
        self.ids = np.insert(self.ids, at, self.recent_ids)
        self.recent, self.recent_ids = self.recent[:0], self.recent_ids[:0]

    def finish(self) -> _TripleSet:
        """The keys entered as a _TripleSet, each key's flag clear."""
        import numpy as np

        self._merge()
        # _KEY's layout, so that a key's slice of packed is its _triple_key.
        packed = np.ascontiguousarray(self.keys[: self.count], dtype="<i8").tobytes()
        # The traversal peaks here: drop the growing columns before the copies.
        del self.keys, self.node, self.depth
        return _TripleSet(array("Q", self.tags.tobytes()), array("i", self.ids.tobytes()), packed)


def _triple_key(k0: int, k1: int, k2: int, k3: int) -> bytes | tuple[int, int, int, int]:
    """_TripleSet's stored form of a rounded triple: packed as _KEY, or the
    tuple itself when a component does not fit in int64.  A bytes key never
    equals a tuple, so the two forms never collide."""
    try:
        return _KEY.pack(k0, k1, k2, k3)
    except struct.error:
        return (k0, k1, k2, k3)


class _TripleSet:
    """Dedup set of discriminant-1 triples keyed on their rounded components.

    Takes the four real components rather than a circle so the DFS can test
    a triple before building any object for it; _rounded_keys is the same
    rounding rule over arrays.  A triple and its negation are the same
    locus, so each is keyed by its sign-canonical form (first nonzero
    component positive); otherwise mixed-sign seeds would shadow each
    other's orbits.

    A key that _KeyTable numbered is its id's flag in `seen`: find looks
    its hash up in the sorted column `tags`, takes the id beside it from
    `ids`, and compares the key with that id's 32 bytes of `packed`.  Any
    other key sits in the set `other` as _triple_key packs it, 32 bytes
    where a tuple of four ints takes about 200.  Called with no arguments,
    _TripleSet is a plain set.
    """

    __slots__ = ("tags", "ids", "packed", "seen", "other")
    GRID = 1e-8

    def __init__(self, tags=(), ids=(), packed=b""):
        self.tags, self.ids, self.packed = tags, ids, packed
        self.seen, self.other = bytearray(len(ids)), set()

    def find(self, key) -> int | None:
        """The id of a _triple_key key, if it has one."""
        if type(key) is not bytes:
            return None
        tag = _key_hash(key)
        i = bisect.bisect_left(self.tags, tag)
        if i < len(self.tags) and self.tags[i] == tag:
            k = self.ids[i]
            if self.packed[32 * k : 32 * k + 32] == key:
                return k
        return None

    def try_add(self, A: float, Bre: float, Bim: float, C: float) -> bool:
        """Record the triple; False when it, its negation, or one within
        rounding of either was seen."""
        if (A, Bre, Bim, C) < (0.0, 0.0, 0.0, 0.0):
            A, Bre, Bim, C = -A, -Bre, -Bim, -C
        g = self.GRID
        comps = q0, q1, q2, q3 = (A / g, Bre / g, Bim / g, C / g)
        k0, k1, k2, k3 = rounded = (round(q0), round(q1), round(q2), round(q3))
        key = _triple_key(k0, k1, k2, k3)
        i = self.find(key)
        if key in self.other if i is None else self.seen[i]:
            return False
        # Probe neighbor keys so equal triples straddling a rounding
        # boundary still collide.  Only a component within 0.01 of a
        # boundary has a neighbor key, so most triples take one lookup.
        if (
            abs(q0 - k0) > 0.49
            or abs(q1 - k1) > 0.49
            or abs(q2 - k2) > 0.49
            or abs(q3 - k3) > 0.49
        ):
            options = [
                (k, k + 1) if q - k > 0.49 else (k, k - 1) if q - k < -0.49 else (k,)
                for q, k in zip(comps, rounded)
            ]
            for probe in itertools.product(*options):
                probe = _triple_key(*probe)
                j = self.find(probe)
                if probe in self.other if j is None else self.seen[j]:
                    return False
        if i is None:
            self.other.add(key)
        else:
            self.seen[i] = 1
        return True
