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


_LETTER_RE = re.compile(r"^g(\d+)(\^-1)?$")


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
        return "*".join(letter_name(l) for l in self.letters)

    @staticmethod
    def parse(text: str) -> "Word":
        text = text.strip()
        if text in ("", "id"):
            return Word(())
        letters = []
        for piece in text.split("*"):
            m = _LETTER_RE.match(piece.strip())
            if not m:
                raise ValueError(f"cannot parse letter {piece!r}")
            idx = int(m.group(1))
            letters.append(-idx if m.group(2) else idx)
        return Word(letters)


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
    """Level-order walk of the word tree below the roots.

    ``roots`` are ``(letters, value)`` pairs of one nonempty length in
    lexicographic order; ``step`` maps the alphabet, in order, to right
    factors: the child by letter l has the value ``value * step[l]``.
    Yields ``(length, letters, value)`` up to ``max_length``, by length,
    then lexicographically.
    """
    max_length = operator.index(max_length)
    after = extensions(step)
    level = list(roots)
    length = len(level[0][0]) if level else 0
    while level and length <= max_length:
        for letters, value in level:
            yield length, letters, value
        if length == max_length:
            return
        length += 1
        level = [
            (letters + (l,), value * step[l])
            for letters, value in level
            for l in after[letters[-1]]
        ]


def reduced_words(rank: int, length: int) -> Iterator[Word]:
    """All reduced words of the exact length, in lexicographic order,
    streamed depth first: one path of the tree is held, never a level."""
    length = operator.index(length)
    if length < 0:
        raise InvalidArgument("length must be >= 0")
    if length == 0:
        yield Word(())
        return
    after = extensions(alphabet(rank))
    prefix = ()
    choices = [iter(after[0])]  # the letters still to try after each prefix
    while choices:
        for l in choices[-1]:
            if len(prefix) + 1 == length:
                yield Word(prefix + (l,))
            else:
                prefix += (l,)
                choices.append(iter(after[l]))
                break
        else:
            choices.pop()
            prefix = prefix[:-1]


def count_reduced_words(rank: int, length: int) -> int:
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)
