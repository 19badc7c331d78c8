import pytest
from hypothesis import example, given, strategies as st

from schottky.words import (
    Word,
    alphabet,
    count_reduced_words,
    count_words_up_to,
    letter_name,
    reduced_words,
)


def test_count_examples():
    assert count_reduced_words(2, 1) == 4
    assert count_reduced_words(2, 3) == 36
    assert count_reduced_words(2, 0) == 1
    assert sum(1 for _ in reduced_words(2, 3)) == 36
    assert list(reduced_words(2, 0)) == [Word(())]


def test_enumeration_is_lexicographic_and_reduced():
    words = list(reduced_words(2, 2))
    assert len(words) == 12
    assert words == sorted(words)
    assert words[0] == Word((1, 1))
    for w in words:
        Word(w.letters)  # re-validates reducedness


def test_rejects_non_reduced():
    with pytest.raises(ValueError):
        Word((1, -1))
    with pytest.raises(ValueError):
        Word((2, -2, 1))
    with pytest.raises(ValueError):
        Word((0,))


def test_free_reduction():
    assert Word.reduced((1, 2, -2, -1, 1)) == Word((1,))
    assert Word.reduced((1, -1)) == Word(())


def test_inverse_and_concat():
    w = Word((1, 2, -1))
    assert w.inverse() == Word((1, -2, -1))
    assert w * w.inverse() == Word(())
    assert Word((1, 2)) * Word((-2, 1)) == Word((1, 1))


def test_prefix():
    assert Word((1, 2)).is_prefix_of(Word((1, 2, -1)))
    assert Word(()).is_prefix_of(Word((1,)))
    assert Word((1, 2)).is_prefix_of(Word((1, 2)))
    assert not Word((2,)).is_prefix_of(Word((1, 2)))


def test_serialization_round_trip():
    for w in [Word(()), Word((1,)), Word((-2, 1, 1)), Word((1, 2, -1))]:
        assert Word.parse(str(w)) == w
    assert str(Word(())) == "id"
    assert str(Word((1, -2))) == "g1*g2^-1"
    with pytest.raises(ValueError):
        Word.parse("h1")


@pytest.mark.parametrize("rank", (1, 2, 3))
def test_every_word_name_parses_back(rank):
    for length in range(4):
        for w in reduced_words(rank, length):
            assert Word.parse(str(w)) == w


@pytest.mark.parametrize("text", ("g\u0661", "g01", "g0", "g1^-1*g\u0662", "g+1", "g 1"))
def test_letter_names_take_ascii_digits_without_a_leading_zero(text):
    # the names str(Word) writes, as parse_rational takes only [0-9] for points
    with pytest.raises(ValueError, match="is not a letter"):
        Word.parse(text)


def test_alphabet_order():
    assert alphabet(2) == (1, -1, 2, -2)


def test_reduced_words_streams_past_the_recursion_limit():
    assert len(next(reduced_words(2, 3000))) == 3000


@given(st.lists(st.integers(-70, 70).filter(bool), max_size=12))
def test_word_str_joins_the_letter_names(letters):
    # letters past g64 are named outside the table
    w = Word.reduced(letters)
    assert str(w) == ("*".join(letter_name(l) for l in w.letters) if w else "id")


@pytest.mark.parametrize("rank", (1, 2, 3, 4))
def test_count_words_up_to_is_exact_below_the_cap(rank):
    for cap in (1, 10, 1000, 5 * 10**5):
        for max_length in range(0, 25):
            exact = sum(count_reduced_words(rank, n) for n in range(1, max_length + 1))
            assert count_words_up_to(2 * rank, 2 * rank - 1, max_length, cap) == min(exact, cap + 1)
    # a huge length is capped without taking the power
    assert count_words_up_to(2 * rank, 2 * rank - 1, 10**12, 5 * 10**5) == 5 * 10**5 + 1


@given(
    first=st.integers(1, 6),
    branching=st.integers(1, 6),
    max_length=st.integers(0, 60),
    cap=st.sampled_from((1, 7, 5 * 10**5, 10**6)),
)
@example(first=1, branching=2, max_length=3, cap=7)  # 1 + 2 + 4 is the cap itself
def test_count_words_up_to_is_the_capped_tree_sum(first, branching, max_length, cap):
    exact = sum(first * branching ** (n - 1) for n in range(1, max_length + 1))
    assert count_words_up_to(first, branching, max_length, cap) == min(exact, cap + 1)
