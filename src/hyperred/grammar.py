"""Textual grammar for hypergeometric and Mellin-Barnes inputs.

    2F1[1/2+eps, -eps; 1+2*eps; z]        hypergeometric function
    MB[-1/4*y; [j1+j2+sigma-n/2, j1, j2, n/2-sigma]; [n/2, ...]; []; []]
    @v1200                                 named preset

Each expression is read as one ``scalars.Linear`` and then its symbols
are checked: parameters hold only eps, MB forms n and the propagator
symbols but not eps.  parse(print(x)) round-trips for every value the
engine produces.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from typing import List, Tuple, Union

from .errors import ParseError
from .hyper import HyperFn
from .mb import MBRepr, get_preset
from .scalars import EpsLin, Linear, LinearForm

# kinds: "int" | "name" | a punctuation mark (its own text) | "end"
_Token = namedtuple("_Token", "kind text line col")

# decimal integers, names, the punctuation marks, newlines; other whitespace
# is skipped and any other character is an error
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<punct>[][(),;+*/@=-])"
                    r"|(?P<newline>\n)|\s|(?P<bad>.)", re.S)


def _tokenize(text: str) -> List[_Token]:
    toks, line, start = [], 1, 0          # start: the offset where the line begins
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind:
            toks.append(_Token(m.group() if kind == "punct" else kind, m.group(), line, col))
    toks.append(_Token("end", "", line, len(text) - start + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind) -> _Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"unexpected {t.text or 'end of input'!r}",
                             t.line, t.col, expected=(kind,))
        return self.next()

    def fail(self, msg, expected=()):
        t = self.peek()
        raise ParseError(msg, t.line, t.col, expected=expected)

    # linear expressions --------------------------------------------------

    def linexpr(self) -> Linear:
        acc = self.linterm()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            acc = acc + self.linterm() if op == "+" else acc - self.linterm()
        return acc

    def linterm(self) -> Linear:
        acc = self.linunary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
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
        if self.peek().kind in ("+", "-"):
            sign = 1 if self.next().kind == "+" else -1
            return self.linunary().scale(sign)
        return self.linatom()

    def linatom(self) -> Linear:
        t = self.peek()
        if t.kind == "int":
            self.next()
            return Linear.constant(int(t.text))
        if t.kind == "name":
            self.next()
            return Linear._of(((t.text, Fraction(1)),), Fraction(0))
        if t.kind == "(":
            self.next()
            e = self.linexpr()
            self.expect(")")
            return e
        self.fail("expected a number, symbol, or parenthesized expression",
                  expected=("int", "name", "("))

    # structured values -----------------------------------------------------

    def epslin(self) -> EpsLin:
        t = self.peek()
        e = self.linexpr()
        bad = [k for k in e.symbols if k != "eps"]
        if bad:
            raise ParseError(f"unknown symbol {bad[0]!r} in parameter "
                             "(parameters are rational + rational*eps)",
                             t.line, t.col)
        return EpsLin._of(e.terms, e.const)

    def linform(self) -> LinearForm:
        t = self.peek()
        e = self.linexpr()
        if "eps" in e.symbols:
            raise ParseError("eps is not allowed in Mellin-Barnes forms",
                             t.line, t.col)
        return LinearForm._of(e.terms, e.const)

    def argument(self) -> Tuple[Fraction, str]:
        """kappa * var with a single symbolic variable."""
        t = self.peek()
        e = self.linexpr()
        if len(e.terms) != 1 or e.const != 0:
            raise ParseError("argument must be (rational) * variable",
                             t.line, t.col)
        (var, kappa), = e.terms
        return kappa, var

    def hyper(self) -> HyperFn:
        head = self.expect("int")
        p1 = int(head.text)
        fname = self.expect("name")
        if not (fname.text.startswith("F") and fname.text[1:].isdigit()):
            raise ParseError("expected pFq head like 2F1", fname.line, fname.col)
        p = int(fname.text[1:])
        if p1 != p + 1:
            raise ParseError(f"{p1}F{p} is not a (p+1)Fp function",
                             head.line, head.col)
        self.expect("[")
        upper = self.items(self.epslin, ";")
        lower = self.items(self.epslin, ";")
        kappa, var = self.argument()
        self.expect("]")
        if len(upper) != p1 or len(lower) != p:
            raise ParseError(
                f"arity mismatch: {p1}F{p} needs {p1} upper and {p} lower "
                f"parameters, got {len(upper)} and {len(lower)}",
                head.line, head.col)
        return HyperFn(upper, lower, kappa, var)

    def items(self, read, close) -> list:
        """read() items separated by commas, up to and including the token close."""
        out = []
        if self.peek().kind != close:
            out.append(read())
            while self.peek().kind == ",":
                self.next()
                out.append(read())
        self.expect(close)
        return out

    def mbrepr(self) -> MBRepr:
        head = self.expect("name")
        if head.text != "MB":
            raise ParseError("expected MB[...]", head.line, head.col)
        self.expect("[")
        kappa, var = self.argument()
        forms = []
        for _ in range(4):
            self.expect(";")
            self.expect("[")
            forms.append(self.items(self.linform, "]"))
        self.expect("]")
        try:
            return MBRepr(kappa, var, *forms)
        except ValueError as e:
            raise ParseError(str(e), head.line, head.col) from None

    def preset(self):
        self.expect("@")
        name = self.expect("name")
        try:
            return get_preset(name.text)
        except KeyError as e:
            raise ParseError(f"unknown preset @{name.text}", name.line, name.col) from None


def parse_input(text: str) -> Union[HyperFn, MBRepr, "DiagramPreset"]:
    """Parse a hypergeometric spec, an MB spec, or a @preset reference."""
    p = _Parser(text)
    t = p.peek()
    if t.kind == "@":
        out = p.preset()
    elif t.kind == "name" and t.text == "MB":
        out = p.mbrepr()
    elif t.kind == "int":
        out = p.hyper()
    else:
        p.fail("expected pFq[...], MB[...], or @preset", expected=("int", "name", "@"))
    end = p.peek()
    if end.kind != "end":
        raise ParseError(f"trailing input {end.text!r}", end.line, end.col)
    return out


def parse_hyper(text: str) -> HyperFn:
    out = parse_input(text)
    if not isinstance(out, HyperFn):
        raise ParseError("expected a hypergeometric function", 1, 1)
    return out

