"""Reference level-order walk of the word tree.

``walk`` and ``reduced_words`` are the library's before its walk went
depth first: ``walk`` holds a whole level of values and yields by length,
then lexicographically; ``reduced_words`` keeps its own depth-first loop.
``group_walk`` is ``SchottkyGroup._walk`` over that order.
``test_word_tree.py`` compares the library with them, and
``coset_oracle`` and ``flat_oracle`` keep their by-length rules on
``group_walk``.
"""

from __future__ import annotations

import operator
from typing import Iterator, Tuple

from schottky.errors import InvalidArgument
from schottky.groups import _refuse_long_walk
from schottky.words import Word, alphabet, extensions


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


def group_walk(G, max_length: int):
    """``G._walk(max_length)`` in level order, with its walk-cap refusal."""
    _refuse_long_walk(G.rank, max_length)
    return walk([((l,), g) for l, g in G._steps.items()], G._steps, max_length)
