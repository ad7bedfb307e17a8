"""Text formats round-trip and reject junk cleanly."""

import pytest
from hypothesis import given, strategies as st

from permstack.textio import (
    ParseError,
    format_patterns,
    format_word,
    parse_patterns,
    parse_word,
)
from permstack.words import PatternSet


def test_parse_word_forms():
    assert parse_word("52413") == (5, 2, 4, 1, 3)
    assert parse_word("5,2,4,1,3") == (5, 2, 4, 1, 3)
    assert parse_word("[10,2,1]") == (10, 2, 1)
    assert parse_word("7") == (7,)
    assert parse_word("10") == (10,)
    assert parse_word("") == ()
    assert parse_word("[]") == ()
    assert parse_word("[ 1 , 2 ]") == (1, 2)
    assert parse_word("[ ]") == ()


def test_parse_word_rejects_junk():
    # superscript and fullwidth digits pass str.isdigit; letters are ASCII
    for bad in ("abc", "1,,2", "0", "1,0", "[1,2", "5 2", "\u00b2", "1\u00b2",
                "[\u00b2]", "2,\u00b2", "\uff11\uff12", "[[1]]", "]", "1]", "[1]]",
                "[1,[2]]"):
        with pytest.raises(ParseError):
            parse_word(bad)


@pytest.mark.parametrize(
    "w",
    [(), (3,), (12,), (1, 2, 3), (5, 2, 4, 1, 3), (10, 2, 1), (1, 11, 2), (10,), (1, 1), (9, 10)],
)
def test_format_word_round_trips(w):
    assert parse_word(format_word(w)) == w


def test_parse_patterns():
    t = parse_patterns("123,132")
    assert sorted(t) == [(1, 2, 3), (1, 3, 2)]
    assert sorted(parse_patterns("[10,2,1,3,4,5,6,7,8,9],21"))[0] == (2, 1)
    assert parse_patterns("21").min_len == 2
    assert sorted(parse_patterns(" [ 1 , 2 ] , 21 ,")) == [(1, 2), (2, 1)]
    assert sorted(parse_patterns("[2,1],[1,2]")) == [(1, 2), (2, 1)]


def test_parse_patterns_errors():
    with pytest.raises(ParseError):
        parse_patterns("12x")
    with pytest.raises(ParseError):
        parse_patterns("[1,2")
    for bad in ("102", "10"):  # a compact pattern has no 0: brackets past 9
        with pytest.raises(ParseError):
            parse_patterns(bad)
    for bad in ("[[1,2]]", "[[12]]", "12]", "]12", "[1,2]],21", "21,[1,[2]]", "[1,2]3"):
        with pytest.raises(ParseError):
            parse_patterns(bad)  # nested or stray brackets
    for bad in ("\u00b21", "[2,\u00b2]", "\uff12\uff11"):
        with pytest.raises(ParseError):
            parse_patterns(bad)  # superscript and fullwidth digits
    for empty in ("", ",", ",,", " , "):
        with pytest.raises(ValueError) as exc:
            parse_patterns(empty)  # empty set is invalid, but not a syntax error
        assert type(exc.value) is ValueError
    for bad in ("[10]", "[ ]"):  # one letter past 9, the empty pattern
        with pytest.raises(ValueError) as exc:
            parse_patterns(bad)
        assert type(exc.value) is ValueError
    with pytest.raises(ValueError):
        parse_patterns("1")  # length-1 pattern
    with pytest.raises(ValueError):
        parse_patterns("122")  # not a permutation


def test_format_patterns_round_trip():
    t = parse_patterns("213,231")
    assert sorted(parse_patterns(format_patterns(t))) == sorted(t)
    t = parse_patterns("[10,2,1,3,4,5,6,7,8,9],21")  # a letter past 9 is bracketed
    assert parse_patterns(format_patterns(t)) == t


@given(st.lists(st.integers(1, 30), max_size=12))
def test_format_word_round_trips_any_word(w):
    w = tuple(w)
    assert parse_word(format_word(w)) == w


def _permutations(lo, hi):
    return st.integers(lo, hi).flatmap(lambda n: st.permutations(range(1, n + 1)).map(tuple))


@given(_permutations(10, 12), st.lists(_permutations(2, 12), max_size=3))
def test_format_patterns_round_trips_any_set(long_pattern, others):
    """A set holds at least one pattern of length 10 to 12, whose letters
    pass 9."""
    t = PatternSet(frozenset([long_pattern, *others]))
    assert parse_patterns(format_patterns(t)) == t
