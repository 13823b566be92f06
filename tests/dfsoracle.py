"""The scalar stack traversal that `kleinlab.limitset._preorder` replaced,
kept as the oracle for its level builder and replay.

``preorder_oracle(group, config, stats)`` returns what ``_preorder`` does:
each new triple's coefficients as a flat ``array('d')`` of rows (A, Re B,
Im B, C), its word and its depth-exhausted flag, in preorder, with the
counters added into ``stats``.  It forms each letter's transport products
and applies them in complex arithmetic, sharing no code with
``mobius._transport`` but the dedup set.  A float times a complex is
written as ``complex(x, 0.0)`` times it, the promotion CPython has always
made there up to 3.13, so that the oracle means the same on any version.
"""

from array import array

from kleinlab.wordtree import _TripleSet


def letter_products(m):
    """transform_hermitian's ten products of m, in its order."""
    a, b, c, d = m.a, m.b, m.c, m.d
    return (
        (d * d.conjugate()).real, (c * c.conjugate()).real,
        (b * b.conjugate()).real, (a * a.conjugate()).real,
        c * d.conjugate(), a * d.conjugate(), b * c.conjugate(),
        a * c.conjugate(), a * b.conjugate(), b * d.conjugate(),
    )


def preorder_oracle(group, config, stats):
    seen = _TripleSet()
    coeffs = array("d")
    words, flags = [], []
    eps2 = config.epsilon * config.epsilon
    max_depth = config.max_depth
    letters = group.alphabet.letters
    inverse_rank = [group.alphabet.letter_rank(x.swapcase()) for x in letters]
    products = [letter_products(group.letter_map(x)) for x in letters]

    # Children are pushed in reverse rank order, so they pop in rank order.
    stack = [(s.A, s.B.real, s.B.imag, s.C, "", -1, 0) for s in reversed(config.seeds)]
    while stack:
        A, Bre, Bim, C, word, last_rank, depth = stack.pop()
        stats.words_visited += 1
        stats.max_depth_reached = max(stats.max_depth_reached, depth)
        bb = Bre * Bre + Bim * Bim
        disc = bb - A * C
        if not disc > 0.0 or not seen.try_add(A, Bre, Bim, C):
            stats.branches_pruned += 1
            continue
        ac = A - C
        small = 16.0 * disc < eps2 * (4.0 * bb + ac * ac)
        coeffs.extend((A, Bre, Bim, C))
        words.append(word)
        flags.append(not small and depth >= max_depth)
        if small:
            stats.branches_pruned += 1
            continue
        if depth >= max_depth:
            stats.depth_exhausted_branches += 1
            continue
        skip = inverse_rank[last_rank] if last_rank >= 0 else -1
        B = complex(Bre, Bim)
        for rank in range(len(letters) - 1, -1, -1):
            if rank == skip:
                continue
            dd, cc, bbc, aa, cd, ad, bcc, acc, ab, bd = products[rank]
            A2 = A * dd + C * cc - 2.0 * (B * cd).real
            B2 = complex(-A, 0.0) * bd + B * ad + B.conjugate() * bcc - complex(C, 0.0) * acc
            C2 = A * bbc + C * aa - 2.0 * (B * ab).real
            stack.append((A2, B2.real, B2.imag, C2, letters[rank] + word, rank, depth + 1))
    return coeffs, words, flags
