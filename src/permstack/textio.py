"""Text formats for words and pattern sets.

One grammar covers both.  A word is written compactly, one digit per
letter ("52413", letters 1..9 only), as comma-separated decimal letters
("5,2,4,1,3", or "10" for the one letter 10), or bracketed ("[10,2,1]";
"[]" is the empty word).  A pattern set is comma-separated patterns, each
a word in compact or bracket form ("123,132", "[10,2,1,3,4,5,6,7,8,9],21").
Brackets do not nest, and letters are written in the ASCII digits 0-9 only.
"""

from __future__ import annotations

import re

from .words import PatternSet, Word


class ParseError(ValueError):
    """Malformed word or pattern text."""


#: A pattern-set item: the text up to a comma outside brackets.  A stray
#: bracket stays in its item, for parse_word to reject.
_PATTERN_ITEM = re.compile(r"(?:\[[^\[\]]*\]|[^,])+")


def _parse_letter(item: str) -> int:
    item = item.strip()
    if not (item.isascii() and item.isdigit()):
        raise ParseError(f"bad letter {item!r}: letters are decimal integers")
    v = int(item)
    if v < 1:
        raise ParseError(f"bad letter {item!r}: letters start at 1")
    return v


def parse_word(text: str) -> Word:
    """Parse a word from any of the accepted syntaxes.

    >>> parse_word("52413")
    (5, 2, 4, 1, 3)
    >>> parse_word("5,2,4,1,3")
    (5, 2, 4, 1, 3)
    >>> parse_word("[10,2,1]")
    (10, 2, 1)
    """
    t = text.strip()
    if t.startswith("["):
        if not t.endswith("]"):
            raise ParseError(f"unclosed bracket in {text!r}")
        t = t[1:-1]
    elif t.isascii() and t.isdigit() and "0" not in t:
        return tuple(int(ch) for ch in t)
    if not t.strip():
        return ()
    # the bracket and comma forms, and a lone letter with a 0 ("10")
    return tuple(_parse_letter(item) for item in t.split(","))


def format_word(w: Word) -> str:
    """Render a word so that parse_word round-trips it.

    >>> format_word((5, 2, 4, 1, 3))
    '52413'
    >>> format_word((10, 2, 1))
    '10,2,1'
    >>> format_word(())
    '[]'
    """
    if not w:
        return "[]"
    if len(w) == 1 and w[0] > 9:
        return f"[{w[0]}]"
    if all(1 <= x <= 9 for x in w):
        return "".join(str(x) for x in w)
    return ",".join(str(x) for x in w)


def parse_patterns(text: str) -> PatternSet:
    """Parse a pattern set such as "123,132" or "[10,2,1],21".

    Syntax problems, a compact pattern with a 0 among them, raise
    ParseError; a syntactically fine but invalid set (empty, length-1
    pattern, non-permutation) raises the PatternSet's own ValueError.
    """
    items = [item.strip() for item in _PATTERN_ITEM.findall(text)]
    for item in items:
        if "0" in item and not item.startswith("["):
            raise ParseError(f"pattern {item!r}: compact letters are 1..9; use [a,b,...] past 9")
    return PatternSet(frozenset(parse_word(item) for item in items if item))


def format_patterns(tset: PatternSet) -> str:
    """Render a pattern set that parse_patterns reads back: a pattern
    with a letter past 9 is bracketed.

    >>> format_patterns(parse_patterns("[10,2,1,3,4,5,6,7,8,9],21"))
    '21,[10,2,1,3,4,5,6,7,8,9]'
    """
    return ",".join(format_word(p) if max(p) <= 9 else f"[{format_word(p)}]" for p in tset)
