"""Character-loop reference for ``grammar._tokenize``, which the program never calls.

This is the scanner the grammar used before its one token pattern: it
walks the text a character at a time and advances the column by hand.
Tokens are plain (kind, text, line, col) tuples, kind being "int",
"name", a punctuation mark or "end".  It reads every numeric character
that ``str.isdigit`` accepts as part of an integer, so ``²`` reaches
``int()`` and fails there; the token pattern reads only decimal digits
as integers, and the property test pins that one difference.
"""

from __future__ import annotations

from typing import List, Tuple

from hyperred.errors import ParseError

PUNCT = ("[", "]", "(", ")", ",", ";", "+", "-", "*", "/", "@", "=")


def tokenize(text: str) -> List[Tuple[str, str, int, int]]:
    toks = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in PUNCT:
            toks.append((ch, ch, line, col))
            col += 1
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("end", "", line, col))
    return toks
