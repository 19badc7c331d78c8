"""Reduced words in a free group on g generators.

Letters are nonzero integers: +i is the i-th generator (1-based), -i its
inverse.  The alphabet is ordered g1 < g1^-1 < g2 < g2^-1 < ... and words
compare lexicographically in that order.
"""

from __future__ import annotations

import operator
import re
from typing import Dict, Iterator, Tuple

from .errors import InvalidArgument


def letter_key(letter: int):
    return (abs(letter), 0 if letter > 0 else 1)


def letter_name(letter: int) -> str:
    base = f"g{abs(letter)}"
    return base if letter > 0 else base + "^-1"


class _LetterNames(dict):
    """letter -> letter_name(letter), tabled for the first 64 generators;
    a letter past them is named when asked for."""

    def __missing__(self, letter):
        return letter_name(letter)


_NAMES = _LetterNames((l, letter_name(l)) for i in range(1, 65) for l in (i, -i))

_LETTER_RE = re.compile(r"g([1-9][0-9]*)(\^-1)?")


class Word:
    """A reduced word; construction rejects adjacent inverse pairs."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple(map(operator.index, letters))
        for l in letters:
            if l == 0:
                raise ValueError("0 is not a letter")
        for a, b in zip(letters, letters[1:]):
            if a == -b:
                raise ValueError(f"word {letters} is not reduced")
        self.letters = letters

    @staticmethod
    def reduced(letters) -> "Word":
        """Free reduction of an arbitrary letter sequence."""
        out = []
        for l in map(operator.index, letters):
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(l)
        return Word(out)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __lt__(self, other):
        return list(map(letter_key, self.letters)) < list(map(letter_key, other.letters))

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word.reduced(self.letters + other.letters)

    def append(self, letter: int) -> "Word":
        return Word(self.letters + (letter,))

    def is_prefix_of(self, other: "Word") -> bool:
        return other.letters[: len(self.letters)] == self.letters

    def __repr__(self):
        return f"Word({self.letters})"

    def __str__(self):
        if not self.letters:
            return "id"
        return "*".join(map(_NAMES.__getitem__, self.letters))

    @staticmethod
    def parse(text: str) -> "Word":
        text = text.strip()
        if text in ("", "id"):
            return Word(())
        letters = []
        for piece in text.split("*"):
            m = _LETTER_RE.fullmatch(piece.strip())
            if not m:
                raise ValueError(f"{piece.strip()!r} is not a letter")
            idx = int(m.group(1))
            letters.append(-idx if m.group(2) else idx)
        return Word(letters)


_new_word = object.__new__
_set_letters = Word.letters.__set__


def _trusted_word(letters: tuple) -> Word:
    """A Word over a tuple of letters that is already reduced, without the
    checks of ``Word(...)``; the word-tree walk makes only such tuples."""
    w = _new_word(Word)
    _set_letters(w, letters)
    return w


def alphabet(rank: int) -> Tuple[int, ...]:
    letters = []
    for i in range(1, rank + 1):
        letters.extend((i, -i))
    return tuple(letters)


def extensions(letters) -> Dict[int, Tuple[int, ...]]:
    """The child rule of the word tree: last letter of a reduced word (0
    for the empty word) -> the letters extending it, in alphabet order."""
    letters = tuple(letters)
    table = {0: letters}
    for last in letters:
        table[last] = tuple(l for l in letters if l != -last)
    return table


def walk(roots, step, max_length: int) -> Iterator[Tuple[int, Tuple[int, ...], object]]:
    """Depth-first walk of the word tree below the roots, in preorder.

    ``roots`` are ``(letters, value)`` pairs of one nonempty length in
    lexicographic order; ``step`` maps the alphabet, in order, to right
    factors: the child by letter l has the value ``value * step[l]``.
    Yields ``(length, letters, value)`` up to ``max_length``, each node
    before its children and each length in lexicographic order.  It holds
    the path, and the parent's length, value and next index for each level
    with letters left to try: a path with no branches holds no ancestor.
    """
    max_length = operator.index(max_length)
    after = extensions(step)
    for letters, value in roots:
        length = len(letters)
        if length > max_length:
            return
        path = list(letters)
        levels = []  # [length, value, children, next index]
        while True:
            yield length, tuple(path), value
            if length < max_length:
                levels.append([length, value, after[path[-1]], 0])
            if not levels:
                break
            length, value, children, i = level = levels[-1]
            if i + 1 < len(children):
                level[3] = i + 1
            else:
                levels.pop()  # its last letter is taken
            path[length:] = children[i : i + 1]
            length += 1
            value = value * step[children[i]]


def reduced_words(rank: int, length: int) -> Iterator[Word]:
    """All reduced words of the exact length, in lexicographic order: the
    nodes of that length of a walk over unit values, streamed."""
    length = operator.index(length)
    if length < 0:
        raise InvalidArgument("length must be >= 0")
    if length == 0:
        yield Word(())
        return
    unit = dict.fromkeys(alphabet(rank), 1)
    for n, letters, _ in walk([((l,), 1) for l in unit], unit, length):
        if n == length:
            yield _trusted_word(letters)


def count_reduced_words(rank: int, length: int) -> int:
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)


def count_words_up_to(first: int, branching: int, max_length: int, cap: int) -> int:
    """The number of words of length 1 .. max_length in a tree with
    ``first`` words of length 1, each with ``branching`` children:
    first * (branching**max_length - 1) / (branching - 1), or
    first * max_length for branching 1, or cap + 1 if that is larger.
    Reduced words of rank r take (2r, 2r - 1), positive words (r, r).
    A length past the cap's bit length takes no power; a negative length
    is refused with InvalidArgument."""
    max_length = operator.index(max_length)
    if max_length < 0:
        raise InvalidArgument("max_length must be >= 0")
    if branching == 1:
        return min(first * max_length, cap + 1)
    if max_length > cap.bit_length():  # the count is at least 2**max_length - 1 > cap
        return cap + 1
    return min(first * (branching**max_length - 1) // (branching - 1), cap + 1)
