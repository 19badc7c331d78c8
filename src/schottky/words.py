"""Reduced words in a free group on g generators.

Letters are nonzero integers: +i is the i-th generator (1-based), -i its
inverse.  The alphabet is ordered g1 < g1^-1 < g2 < g2^-1 < ... and words
compare lexicographically in that order.
"""

from __future__ import annotations

import re
from typing import Iterator, Tuple

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
        letters = tuple(int(l) for l in letters)
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
        for l in letters:
            if out and out[-1] == -l:
                out.pop()
            else:
                out.append(int(l))
        return Word(out)

    @staticmethod
    def identity() -> "Word":
        return Word(())

    @property
    def length(self) -> int:
        return len(self.letters)

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
        return self.sort_key() < other.sort_key()

    def sort_key(self):
        return tuple(letter_key(l) for l in self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-l for l in reversed(self.letters)))

    def concat(self, other: "Word") -> "Word":
        return Word.reduced(self.letters + other.letters)

    __mul__ = concat

    def append(self, letter: int) -> "Word":
        return Word(self.letters + (int(letter),))

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


def reduced_words(rank: int, length: int) -> Iterator[Word]:
    """All reduced words of the exact length, in lexicographic order."""
    if length < 0:
        raise InvalidArgument("length must be >= 0")
    if length == 0:
        yield Word(())
        return
    letters = alphabet(rank)

    def rec(prefix):
        if len(prefix) == length:
            yield Word(prefix)
            return
        for l in letters:
            if prefix and prefix[-1] == -l:
                continue
            yield from rec(prefix + (l,))

    yield from rec(())


def count_reduced_words(rank: int, length: int) -> int:
    if length == 0:
        return 1
    return 2 * rank * (2 * rank - 1) ** (length - 1)
