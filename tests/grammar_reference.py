"""References for ``grammar``, which the program never calls.

``tokenize`` is a character-loop reference for ``grammar._tokenize``, and
``parse_input`` reads every linear expression as a ``scalars.Linear``,
one ``Linear`` operation per token, where ``grammar`` folds integer
numerators over one denominator.

The scanner is the one the grammar used before its one token pattern: it
walks the text a character at a time and advances the column by hand.
Tokens are plain (kind, text, line, col) tuples, kind being "int",
"name", a punctuation mark or "end".  It reads every numeric character
that ``str.isdigit`` accepts as part of an integer, so ``²`` reaches
``int()`` and fails there; the token pattern reads only decimal digits
as integers, and the property test pins that one difference.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from hyperred import grammar
from hyperred.errors import ParseError
from hyperred.scalars import EpsLin, Linear, LinearForm

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


class Parser(grammar._Parser):
    """``grammar._Parser`` with each linear expression folded as a ``Linear``."""

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def linexpr(self) -> Linear:
        acc = self.linterm()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            acc = acc + self.linterm() if op == "+" else acc - self.linterm()
        return acc

    def linterm(self) -> Linear:
        acc = self.linunary()
        while self.peek()[0] in ("*", "/"):
            op = self.next()[0]
            rhs = self.linunary()
            if op == "*":
                if rhs.is_const():
                    acc = acc.scale(rhs.const)
                elif acc.is_const():
                    acc = rhs.scale(acc.const)
                else:
                    self.fail("product of two non-constant expressions")
            else:
                if not rhs.is_const() or rhs.const == 0:
                    self.fail("division requires a nonzero constant divisor")
                acc = acc.scale(1 / rhs.const)
        return acc

    def linunary(self) -> Linear:
        if self.peek()[0] in ("+", "-"):
            sign = 1 if self.next()[0] == "+" else -1
            return self.linunary().scale(sign)
        return self.linatom()

    def linatom(self) -> Linear:
        kind, text, _, _ = self.peek()
        if kind == "int":
            self.next()
            return Linear.constant(int(text))
        if kind == "name":
            self.next()
            return Linear._of(((text, Fraction(1)),), Fraction(0))
        if kind == "(":
            self.next()
            e = self.linexpr()
            self.expect(")")
            return e
        self.fail("expected a number, symbol, or parenthesized expression",
                  expected=("int", "name", "("))

    def epslin(self) -> EpsLin:
        _, _, line, col = self.peek()
        e = self.linexpr()
        bad = [k for k in e.symbols if k != "eps"]
        if bad:
            raise ParseError(f"unknown symbol {bad[0]!r} in parameter "
                             "(parameters are rational + rational*eps)", line, col)
        return EpsLin._of(e.terms, e.const)

    def linform(self) -> LinearForm:
        _, _, line, col = self.peek()
        e = self.linexpr()
        if "eps" in e.symbols:
            raise ParseError("eps is not allowed in Mellin-Barnes forms", line, col)
        return LinearForm._of(e.terms, e.const)

    def argument(self) -> Tuple[Fraction, str]:
        _, _, line, col = self.peek()
        e = self.linexpr()
        if len(e.terms) != 1 or e.const != 0:
            raise ParseError("argument must be (rational) * variable", line, col)
        (var, kappa), = e.terms
        return kappa, var


def parse_input(text: str):
    """``grammar.parse_input`` through ``Parser``."""
    p = Parser(text)
    kind, text, _, _ = p.peek()
    if kind == "@":
        out = p.preset()
    elif kind == "name" and text == "MB":
        out = p.mbrepr()
    elif kind == "int":
        out = p.hyper()
    else:
        p.fail("expected pFq[...], MB[...], or @preset", expected=("int", "name", "@"))
    kind, text, line, col = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", line, col)
    return out
