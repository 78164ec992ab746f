"""Textual grammar for hypergeometric and Mellin-Barnes inputs.

    2F1[1/2+eps, -eps; 1+2*eps; z]        hypergeometric function
    MB[-1/4*y; [j1+j2+sigma-n/2, j1, j2, n/2-sigma]; [n/2, ...]; []; []]
    @v1200                                 named preset

Each expression is folded as integer numerators over one positive
denominator, a Fraction built once per field of the value, and its symbols
are checked: parameters hold only eps, MB forms n and the propagator symbols
but not eps.  parse(print(x)) round-trips for every value the engine produces.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, List, Tuple, Union

from .errors import ParseError
from .hyper import HyperFn
from .mb import MBRepr, get_preset
from .scalars import EpsLin, LinearForm

# tokens are (kind, text, line, col), kind "int", "name", a punctuation mark (its
# own text) or "end": decimal integers, names, the punctuation marks; newlines
# count lines, other whitespace is skipped and any other character is an error
_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[^\W\d]\w*)|(?P<punct>[][(),;+*/@=-])"
                    r"|(?P<newline>\n)|\s|(?P<bad>.)", re.S)


def _tokenize(text: str) -> List[tuple]:
    toks, line, start = [], 1, 0          # start: the offset where the line begins
    for m in _TOKEN.finditer(text):
        kind, col = m.lastgroup, m.start() - start + 1
        if kind == "newline":
            line, start = line + 1, m.end()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, col)
        elif kind:
            toks.append((m.group() if kind == "punct" else kind, m.group(), line, col))
    toks.append(("end", "", line, len(text) - start + 1))
    return toks


def _is_const(nums: Dict[str, int]) -> bool:
    return not any(v for s, v in nums.items() if s)


def _fields(nums: Dict[str, int], den: int):
    """A Linear's fields: nonzero (symbol, Fraction) pairs by symbol, and the constant."""
    terms = sorted((s, Fraction(v, den)) for s, v in nums.items() if v and s)
    return tuple(terms), Fraction(nums.get("", 0), den)


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def expect(self, kind) -> tuple:
        t = self.toks[self.pos]
        if t[0] != kind:
            raise ParseError(f"unexpected {t[1] or 'end of input'!r}", *t[2:], expected=(kind,))
        self.pos += 1
        return t

    def fail(self, msg, expected=()):
        _, _, line, col = self.toks[self.pos]
        raise ParseError(msg, line, col, expected=expected)

    # linear expressions: (nums, den) stands for sum nums[s] * s / den, the
    # constant under the symbol "", with den > 0; zero numerators may stay

    def linexpr(self) -> tuple:
        nums, den = self.linterm()
        while (op := self.toks[self.pos][0]) in ("+", "-"):
            self.pos += 1
            rhs, rden = self.linterm()
            f = 1 if op == "+" else -1      # nums / den + f rhs / den, over one den
            if rden != den:
                nums, f, den = {s: v * rden for s, v in nums.items()}, f * den, den * rden
            for s, v in rhs.items():
                nums[s] = nums.get(s, 0) + f * v
        return nums, den

    def linterm(self) -> tuple:
        nums, den = self.linunary()
        while (op := self.toks[self.pos][0]) in ("*", "/"):
            self.pos += 1
            rhs, rden = self.linunary()
            if op == "*" and not _is_const(rhs):        # a constant factor on the left
                if not _is_const(nums):
                    self.fail("product of two non-constant expressions")
                nums, den, rhs, rden = rhs, rden, nums, den
            m = rhs.get("", 0)                          # times or over m / rden
            if op == "/" and (not _is_const(rhs) or not m):
                self.fail("division requires a nonzero constant divisor")
            m, d = (m, rden) if op == "*" else (rden, m) if m > 0 else (-rden, -m)
            nums, den = {s: v * m for s, v in nums.items()}, den * d
        return nums, den

    def linunary(self) -> tuple:
        sign = self.toks[self.pos][0]
        if sign in ("+", "-"):
            self.pos += 1
            nums, den = self.linunary()
            return ({s: -v for s, v in nums.items()} if sign == "-" else nums), den
        return self.linatom()

    def linatom(self) -> tuple:
        kind, text, _, _ = self.toks[self.pos]
        if kind not in ("int", "name", "("):
            self.fail("expected a number, symbol, or parenthesized expression",
                      expected=("int", "name", "("))
        self.pos += 1
        if kind != "(":
            return ({"": int(text)} if kind == "int" else {text: 1}), 1
        e = self.linexpr()
        self.expect(")")
        return e

    # structured values -----------------------------------------------------

    def epslin(self) -> EpsLin:
        _, _, line, col = self.toks[self.pos]
        nums, den = self.linexpr()
        bad = sorted(s for s, v in nums.items() if v and s not in ("", "eps"))
        if bad:
            raise ParseError(f"unknown symbol {bad[0]!r} in parameter "
                             "(parameters are rational + rational*eps)", line, col)
        return EpsLin._of(*_fields(nums, den))

    def linform(self) -> LinearForm:
        _, _, line, col = self.toks[self.pos]
        nums, den = self.linexpr()
        if nums.get("eps"):
            raise ParseError("eps is not allowed in Mellin-Barnes forms", line, col)
        return LinearForm._of(*_fields(nums, den))

    def argument(self) -> Tuple[Fraction, str]:
        """kappa * var with a single symbolic variable."""
        _, _, line, col = self.toks[self.pos]
        terms, const = _fields(*self.linexpr())
        if len(terms) != 1 or const:
            raise ParseError("argument must be (rational) * variable", line, col)
        (var, kappa), = terms
        return kappa, var

    def hyper(self) -> HyperFn:
        _, head, line, col = self.expect("int")
        p1 = int(head)
        _, fname, fline, fcol = self.expect("name")
        if not (fname.startswith("F") and fname[1:].isdigit()):
            raise ParseError("expected pFq head like 2F1", fline, fcol)
        p = int(fname[1:])
        if p1 != p + 1:
            raise ParseError(f"{p1}F{p} is not a (p+1)Fp function", line, col)
        self.expect("[")
        upper = self.items(self.epslin, ";")
        lower = self.items(self.epslin, ";")
        kappa, var = self.argument()
        self.expect("]")
        if len(upper) != p1 or len(lower) != p:
            raise ParseError(
                f"arity mismatch: {p1}F{p} needs {p1} upper and {p} lower "
                f"parameters, got {len(upper)} and {len(lower)}", line, col)
        return HyperFn(upper, lower, kappa, var)

    def items(self, read, close) -> list:
        """read() items separated by commas, up to and including the token close."""
        out = []
        if self.toks[self.pos][0] != close:
            out.append(read())
            while self.toks[self.pos][0] == ",":
                self.pos += 1
                out.append(read())
        self.expect(close)
        return out

    def mbrepr(self) -> MBRepr:
        _, head, line, col = self.expect("name")
        if head != "MB":
            raise ParseError("expected MB[...]", line, col)
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
            raise ParseError(str(e), line, col) from None

    def preset(self):
        self.expect("@")
        _, name, line, col = self.expect("name")
        try:
            return get_preset(name)
        except KeyError as e:
            raise ParseError(f"unknown preset @{name}", line, col) from None


def parse_input(text: str) -> Union[HyperFn, MBRepr, "DiagramPreset"]:
    """Parse a hypergeometric spec, an MB spec, or a @preset reference."""
    p = _Parser(text)
    kind, text, _, _ = p.toks[0]
    if kind == "@":
        out = p.preset()
    elif kind == "name" and text == "MB":
        out = p.mbrepr()
    elif kind == "int":
        out = p.hyper()
    else:
        p.fail("expected pFq[...], MB[...], or @preset", expected=("int", "name", "@"))
    kind, text, line, col = p.toks[p.pos]
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", line, col)
    return out


def parse_hyper(text: str) -> HyperFn:
    out = parse_input(text)
    if not isinstance(out, HyperFn):
        raise ParseError("expected a hypergeometric function", 1, 1)
    return out
