"""Text formats for words and pattern sets.

Word syntax: comma-separated decimal letters ("5,2,4,1,3"), compact digits
("52413", letters 1..9 only), or bracketed ("[10,2,1]"; "[]" is the empty
word).  Pattern-set syntax: comma-separated compact patterns ("123,132");
a pattern with letters past 9 needs the bracket form ("[10,2,...]").
Letters are written in the ASCII digits 0-9 only.
"""

from __future__ import annotations

from .words import PatternSet, Word


class ParseError(ValueError):
    """Malformed word or pattern text."""


def _parse_letter(item: str) -> int:
    item = item.strip()
    if not (item.isascii() and item.isdigit()):
        raise ParseError(f"bad letter {item!r}: letters are decimal integers")
    v = int(item)
    if v < 1:
        raise ParseError(f"bad letter {item!r}: letters start at 1")
    return v


def _parse_comma_letters(body: str) -> Word:
    body = body.strip()
    if not body:
        return ()
    return tuple(_parse_letter(item) for item in body.split(","))


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
    if not t:
        return ()
    if t.startswith("["):
        if not t.endswith("]"):
            raise ParseError(f"unclosed bracket in {text!r}")
        return _parse_comma_letters(t[1:-1])
    if "," in t:
        return _parse_comma_letters(t)
    if not (t.isascii() and t.isdigit()):
        raise ParseError(f"cannot parse word {text!r}")
    if len(t) == 1 or "0" in t:
        # a lone decimal letter ("7", "10"); compact form has no room for 0
        return (_parse_letter(t),)
    return tuple(int(ch) for ch in t)


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


def _split_top_level(text: str) -> list[str]:
    items: list[str] = []
    cur: list[str] = []
    depth = 0
    for ch in text:
        if ch == "[":
            depth += 1
            cur.append(ch)
        elif ch == "]":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced brackets in {text!r}")
            cur.append(ch)
        elif ch == "," and depth == 0:
            items.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth != 0:
        raise ParseError(f"unbalanced brackets in {text!r}")
    items.append("".join(cur))
    return [item.strip() for item in items]


def _parse_pattern_item(item: str) -> Word:
    if item.startswith("["):
        if not item.endswith("]"):
            raise ParseError(f"unclosed bracket in pattern {item!r}")
        return _parse_comma_letters(item[1:-1])
    if not (item.isascii() and item.isdigit()):
        raise ParseError(f"cannot parse pattern {item!r}")
    if "0" in item:
        raise ParseError(
            f"pattern {item!r}: compact letters are 1..9; use [a,b,...] past 9"
        )
    return tuple(int(ch) for ch in item)


def parse_patterns(text: str) -> PatternSet:
    """Parse a pattern set such as "123,132" or "[10,2,1],21".

    Syntax problems raise ParseError; a syntactically fine but invalid set
    (empty, length-1 pattern, non-permutation) raises the PatternSet's own
    ValueError.
    """
    items = [item for item in _split_top_level(text) if item]
    return PatternSet(frozenset(_parse_pattern_item(item) for item in items))


def format_patterns(tset: PatternSet) -> str:
    return ",".join(format_word(p) for p in tset)
