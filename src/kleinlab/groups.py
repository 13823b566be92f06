"""Free-group words over a marked generator alphabet, their evaluation into
Moebius maps, relation checking, and the parabolic-commutator solver that
produces the rank-2 Kleinian group whose limit set this package draws.

Letters follow the case-swap convention: lowercase names are generators,
the matching uppercase letter is the inverse.  Words are plain strings.
"""

from __future__ import annotations

import cmath
import re
from typing import Iterator, NamedTuple

from .mobius import MoebiusMap

__all__ = [
    "UnknownLetterError",
    "EmptyPresentationError",
    "Alphabet",
    "MarkedGroup",
    "GroupPresentation",
    "RelationReport",
    "free_reduce",
    "inverse_word",
    "parse_word",
    "enumerate_reduced_words",
    "reduced_word_count",
    "check_relations",
    "identity_distance",
    "solve_parabolic_commutator",
    "ParabolicCommutatorSolution",
    "load_marking",
    "load_presentation",
]


class UnknownLetterError(ValueError):
    """A word uses a symbol outside the alphabet."""


class EmptyPresentationError(ValueError):
    """A relator is empty (or freely reduces to the empty word)."""


class Alphabet:
    """Ordered generator names with case-swap inverses.

    Generator names must be distinct single lowercase ascii letters; the
    letter enumeration order interleaves inverses: a, A, b, B, ...
    """

    __slots__ = ("names", "letters", "_ranks")

    def __init__(self, names):
        names = tuple(names)
        if not names:
            raise ValueError("alphabet needs at least one generator")
        for n in names:
            if not (isinstance(n, str) and len(n) == 1 and n.isalpha() and n.islower()):
                raise ValueError(f"generator name must be a lowercase letter, got {n!r}")
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.names = names
        letters = []
        for n in names:
            letters.append(n)
            letters.append(n.upper())
        self.letters = tuple(letters)
        self._ranks = {x: i for i, x in enumerate(self.letters)}

    @property
    def rank(self) -> int:
        return len(self.names)

    def __contains__(self, letter: str) -> bool:
        return letter in self._ranks

    def letter_rank(self, letter: str) -> int:
        try:
            return self._ranks[letter]
        except KeyError:
            raise UnknownLetterError(f"letter {letter!r} not in alphabet {self.names}") from None

    def validate_word(self, word: str) -> None:
        for x in word:
            if x not in self._ranks:
                raise UnknownLetterError(f"letter {x!r} not in alphabet {self.names}")

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.names)!r})"


def inverse_word(word: str) -> str:
    return word[::-1].swapcase()


def free_reduce(word: str, alphabet: Alphabet | None = None) -> str:
    """Cancel adjacent inverse pairs until none remain."""
    if alphabet is not None:
        alphabet.validate_word(word)
    out: list[str] = []
    for x in word:
        if out and out[-1] == x.swapcase():
            out.pop()
        else:
            out.append(x)
    return "".join(out)


def parse_word(text: str, alphabet: Alphabet | None = None) -> str:
    """Expand bracket shorthand into a plain word.

    ``[u,v]`` denotes the commutator u^-1 v^-1 u v, and may nest, so
    ``[a,[B,c]]`` is a valid input.  Whitespace is ignored.  The result is
    not freely reduced.
    """
    s = "".join(text.split())
    pos = 0

    def parse_seq(stop: str | None) -> str:
        nonlocal pos
        out = []
        while pos < len(s) and (stop is None or s[pos] not in stop):
            ch = s[pos]
            if ch == "[":
                pos += 1
                u = parse_seq(",")
                if pos >= len(s) or s[pos] != ",":
                    raise ValueError(f"expected ',' in commutator: {text!r}")
                pos += 1
                v = parse_seq("]")
                if pos >= len(s) or s[pos] != "]":
                    raise ValueError(f"unclosed commutator bracket: {text!r}")
                pos += 1
                out.append(inverse_word(u) + inverse_word(v) + u + v)
            elif ch in ",]":
                break
            else:
                out.append(ch)
                pos += 1
        return "".join(out)

    word = parse_seq(None)
    if pos != len(s):
        raise ValueError(f"trailing characters in word expression: {text!r}")
    if alphabet is not None:
        alphabet.validate_word(word)
    return word


def enumerate_reduced_words(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    """Every freely reduced word of length <= max_len, exactly once, in
    length-lexicographic order (letter order a, A, b, B, ...)."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    letters = alphabet.letters

    def extend(prefix: str, remaining: int) -> Iterator[str]:
        if remaining == 0:
            yield prefix
            return
        banned = prefix[-1].swapcase() if prefix else None
        for x in letters:
            if x != banned:
                yield from extend(prefix + x, remaining - 1)

    for n in range(max_len + 1):
        yield from extend("", n)


def reduced_word_count(rank: int, length: int) -> int:
    """Number of freely reduced words of exactly the given length."""
    if length == 0:
        return 1
    k2 = 2 * rank
    return k2 * (k2 - 1) ** (length - 1)


class MarkedGroup:
    """Generators with Moebius-map images; inverse letters get matrix inverses.

    ``bindings`` lets extra generators be defined as words in the earlier
    ones (resolved in the given order), so a rank-2 marking can carry a
    derived letter like c bound to the commutator word of a and b.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        images: dict[str, MoebiusMap],
        bindings: dict[str, str] | None = None,
    ):
        bindings = dict(bindings or {})
        self.alphabet = alphabet
        self.bindings = bindings
        letter_maps: dict[str, MoebiusMap] = {}
        for name in alphabet.names:
            if name in images:
                if name in bindings:
                    raise ValueError(f"generator {name!r} is both imaged and bound")
                m = images[name]
            elif name in bindings:
                word = parse_word(bindings[name])
                m = _evaluate_letters(letter_maps, word, alphabet)
            else:
                raise ValueError(f"generator {name!r} has neither an image nor a binding")
            letter_maps[name] = m
            letter_maps[name.upper()] = m.inverse()
        for name in images:
            if name not in alphabet.names:
                raise UnknownLetterError(f"image given for {name!r}, not a generator")
        self._letter_maps = letter_maps

    def letter_map(self, letter: str) -> MoebiusMap:
        try:
            return self._letter_maps[letter]
        except KeyError:
            raise UnknownLetterError(
                f"letter {letter!r} not in alphabet {self.alphabet.names}"
            ) from None

    def evaluate(self, word: str) -> MoebiusMap:
        """Left-to-right product of letter images; the empty word is the identity."""
        word = parse_word(word) if ("[" in word or any(c.isspace() for c in word)) else word
        return _evaluate_letters(self._letter_maps, word, self.alphabet)

    def __repr__(self) -> str:
        return f"MarkedGroup({''.join(self.alphabet.names)!r})"


def _evaluate_letters(letter_maps: dict[str, MoebiusMap], word: str, alphabet: Alphabet) -> MoebiusMap:
    acc = MoebiusMap.identity()
    for x in word:
        try:
            m = letter_maps[x]
        except KeyError:
            raise UnknownLetterError(f"letter {x!r} not in alphabet {alphabet.names}") from None
        acc = acc.compose(m)
    return acc


class _Presentation(NamedTuple):
    alphabet: Alphabet
    relators: tuple[str, ...]


class GroupPresentation(_Presentation):
    """An alphabet plus relator words (stored freely reduced)."""

    __slots__ = ()

    def __new__(cls, alphabet: Alphabet, relators):
        reduced = []
        for r in relators:
            w = free_reduce(parse_word(r, alphabet))
            if not w:
                raise EmptyPresentationError(f"relator {r!r} reduces to the empty word")
            reduced.append(w)
        return super().__new__(cls, alphabet, tuple(reduced))


def identity_distance(m: MoebiusMap) -> float:
    """Projective distance from the identity: min over sign of the largest
    entry deviation."""
    plus = max(abs(m.a - 1.0), abs(m.b), abs(m.c), abs(m.d - 1.0))
    minus = max(abs(m.a + 1.0), abs(m.b), abs(m.c), abs(m.d + 1.0))
    return min(plus, minus)


class RelationReport(NamedTuple):
    relators: tuple[str, ...]
    distances: tuple[float, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(d < self.tol for d in self.distances)

    def worst(self) -> float:
        return max(self.distances, default=0.0)


def check_relations(group: MarkedGroup, presentation: GroupPresentation, tol: float) -> RelationReport:
    """Evaluate each relator and report its projective distance from the
    identity; the report passes iff all distances are below tol.  An empty
    relator list passes vacuously."""
    distances = tuple(
        identity_distance(group.evaluate(r)) for r in presentation.relators
    )
    return RelationReport(presentation.relators, distances, tol)


class ParabolicCommutatorSolution(NamedTuple):
    group: MarkedGroup
    parameter: complex


def solve_parabolic_commutator() -> ParabolicCommutatorSolution:
    """Solve for the rank-2 parabolic group with parabolic commutator.

    Within the one-parameter family a: z -> z+1, b: z -> z/(cz+1) (both
    parabolic, b fixing 0), the commutator ABab has trace 2 + c^2, so it is
    parabolic exactly when c^2 = -4.  The root with positive imaginary part
    is chosen; the other root gives the mirror-image group.
    """
    c = cmath.sqrt(-4.0)  # principal root: 2i
    alphabet = Alphabet("ab")
    group = MarkedGroup(
        alphabet,
        {
            "a": MoebiusMap(1, 1, 0, 1),
            "b": MoebiusMap(1, 0, c, 1),
        },
    )
    return ParabolicCommutatorSolution(group, c)


# -- text formats ------------------------------------------------------------
#
# Markings and presentations share one line-oriented format:
#
#   gen a = [[1,0],[1,0];[0,0],[1,0]]    matrix rows [re,im] pairs, ';' between rows
#   bind c = [a,b]                       derived letter bound to a word
#   rel [a,[B,c]]                        relator (bracket commutator shorthand)
#
# '#' starts a comment; blank lines are skipped.

_GEN_RE = re.compile(
    r"^gen\s+([a-z])\s*=\s*\[\[([^\]]*)\],\[([^\]]*)\];\[([^\]]*)\],\[([^\]]*)\]\]$"
)
_BIND_RE = re.compile(r"^bind\s+([a-z])\s*=\s*(.+)$")
_REL_RE = re.compile(r"^rel\s+(.+)$")


def _parse_entry(text: str) -> complex:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ValueError(f"matrix entry needs 're,im', got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


# Characters of text that `_format_lines` splits at once, rounded up to the
# end of a line.
_LINE_CHUNK = 1 << 16


def _format_lines(text: str):
    """(line number, text) of each line of a kleinlab text format, with the
    `#` comment cut off and blank lines skipped.

    The text is split a chunk at a time, so no list of every line is held.
    Each chunk ends just after a "\n", which always ends a line and is never
    cut from the "\r" of a "\r\n", so the lines and their numbers are those
    of `text.splitlines()`."""
    i = start = 0
    while start < len(text):
        end = text.find("\n", start + _LINE_CHUNK) + 1 or len(text)
        for raw in text[start:end].splitlines():
            i += 1
            line = raw.split("#", 1)[0].strip()
            if line:
                yield i, line
        start = end


def load_marking(text: str) -> MarkedGroup:
    """Parse `gen`/`bind` lines into a MarkedGroup; `rel` lines are ignored
    so one file can carry a marking and a presentation together."""
    names: list[str] = []
    images: dict[str, MoebiusMap] = {}
    bindings: dict[str, str] = {}
    for line_no, line in _format_lines(text):
        if line.startswith("rel"):
            continue
        m = _GEN_RE.match(line)
        if m:
            try:
                images[m.group(1)] = MoebiusMap(*(_parse_entry(m.group(k)) for k in range(2, 6)))
            except ValueError as exc:  # a bad float, or DegenerateMatrixError
                raise type(exc)(f"line {line_no}: {exc}") from None
            names.append(m.group(1))
            continue
        m = _BIND_RE.match(line)
        if m:
            names.append(m.group(1))
            bindings[m.group(1)] = m.group(2)
            continue
        raise ValueError(f"line {line_no}: cannot parse {line!r}")
    if not names:
        raise ValueError("marking defines no generators")
    return MarkedGroup(Alphabet(names), images, bindings)


def load_presentation(text: str, alphabet: Alphabet) -> GroupPresentation:
    """Parse `rel` lines into a GroupPresentation over the given alphabet;
    `gen`/`bind` lines are ignored."""
    relators: list[str] = []
    for line_no, line in _format_lines(text):
        m = _REL_RE.match(line)
        if m:
            relators.append(m.group(1))
        elif _GEN_RE.match(line) or _BIND_RE.match(line):
            continue
        else:
            raise ValueError(f"line {line_no}: cannot parse {line!r}")
    return GroupPresentation(alphabet, relators)
