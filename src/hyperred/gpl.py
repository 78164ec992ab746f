"""Goncharov polylogarithms: words, exact series, and weighted combinations.

Convention: G(a; z) = int_0^z dt/(t-a), G(a, w; z) = int_0^z dt/(t-a) G(w; t),
so G(1; z) = ln(1-z) and Li2(z) = -G(0, 1; z).  Words never end in the
letter 0 (analyticity at the origin); a required dt/t integration against
a series with nonvanishing constant term raises UncancelledPole instead of
producing ln(z).

GplCombo is the working representation during iterated integration:
rational functions of the variable multiplying words.  Final expansion
layers are converted to plain rational-coefficient PolyLogExpr values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from .errors import UncancelledPole, UnsupportedClass
from .poly import Poly
from .ratfunc import RatFunc
from .scalars import rat
from .series import collect, mul_trunc

F = Fraction
Word = Tuple[Fraction, ...]

_ZVARS = ("z",)


def as_word(letters: Iterable) -> Word:
    w = tuple(rat(a) for a in letters)
    if w and w[-1] == 0:
        raise ValueError(f"word {w} ends in 0 (not analytic at the origin)")
    return w


# bounded; a 30 s `bench/run.py --workload expand` run fills about 2,300 entries
@lru_cache(maxsize=16384)
def _word_series(word: Word, N: int) -> Tuple[Fraction, ...]:
    if not word:
        return (F(1),) + (F(0),) * N
    a, rest = word[0], word[1:]
    u = _word_series(rest, N)
    out = [F(0)] * (N + 1)
    if a == 0:
        if u[0] != 0:
            raise UncancelledPole(f"dt/t against constant term in G{word}")
        for j in range(1, N + 1):
            out[j] = u[j] / j
    else:
        # conv = u/(t-a) = -sum_m u t^m / a^(m+1) obeys conv_j = (conv_(j-1) - u_j)/a
        conv = F(0)
        for j in range(1, N + 1):
            conv = (conv - u[j - 1]) / a
            out[j] = conv / j
    return tuple(out)


def gpl_word_series(word, N: int) -> List[Fraction]:
    """Exact z-series of G(word; z) to order N."""
    return list(_word_series(as_word(word), N))


def shuffle_words(w1: Word, w2: Word) -> List[Word]:
    """All interleavings (with multiplicity): G(w1) G(w2) = sum G(shuffle)."""
    if not w1:
        return [w2]
    if not w2:
        return [w1]
    out = []
    for s in shuffle_words(w1[1:], w2):
        out.append((w1[0],) + s)
    for s in shuffle_words(w1, w2[1:]):
        out.append((w2[0],) + s)
    return out


@dataclass(frozen=True)
class GplWord:
    """A nonempty Goncharov word in a named variable."""

    letters: Word
    var: str = "z"

    def __init__(self, letters, var="z"):
        w = as_word(letters)
        if not w:
            raise ValueError("GplWord must be nonempty")
        object.__setattr__(self, "letters", w)
        object.__setattr__(self, "var", var)

    @property
    def weight(self) -> int:
        return len(self.letters)

    def __str__(self):
        inner = ",".join(str(a) for a in self.letters)
        return f"G({inner};{self.var})"

    __repr__ = __str__


class PolyLogExpr:
    """Rational-linear combination of Goncharov words plus a constant."""

    __slots__ = ("terms", "const", "var")

    def __init__(self, terms: Mapping[GplWord, Fraction] = (), const=0, var="z"):
        clean = {}
        for w, c in (terms.items() if isinstance(terms, Mapping) else terms):
            if not isinstance(w, GplWord):
                w = GplWord(w, var)
            if w.var != var:
                raise ValueError(f"word variable {w.var} != expression variable {var}")
            c = rat(c)
            if c != 0:
                clean[w] = clean.get(w, F(0)) + c
        object.__setattr__(self, "terms", {w: c for w, c in clean.items() if c != 0})
        object.__setattr__(self, "const", rat(const))
        object.__setattr__(self, "var", var)

    def __setattr__(self, *a):
        raise AttributeError("PolyLogExpr is immutable")

    @property
    def weight(self) -> int:
        return max((w.weight for w in self.terms), default=0)

    def is_zero(self):
        return not self.terms and self.const == 0

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return PolyLogExpr(self.terms, self.const + rat(other), self.var)
        if self.var != other.var:
            raise ValueError("variable mismatch")
        t = dict(self.terms)
        for w, c in other.terms.items():
            t[w] = t.get(w, F(0)) + c
        return PolyLogExpr(t, self.const + other.const, self.var)

    def __sub__(self, other):
        return self + (other * -1 if isinstance(other, PolyLogExpr) else -rat(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return PolyLogExpr({w: c * q for w, c in self.terms.items()},
                               self.const * q, self.var)
        if self.var != other.var:
            raise ValueError("variable mismatch")
        out: Dict[GplWord, Fraction] = {}
        const = self.const * other.const
        for w, c in self.terms.items():
            q = c * other.const
            if q:
                out[w] = out.get(w, F(0)) + q
        for w, c in other.terms.items():
            q = c * self.const
            if q:
                out[w] = out.get(w, F(0)) + q
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                for s in shuffle_words(w1.letters, w2.letters):
                    gw = GplWord(s, self.var)
                    out[gw] = out.get(gw, F(0)) + c1 * c2
        return PolyLogExpr(out, const, self.var)

    __rmul__ = __mul__

    def series(self, N: int) -> List[Fraction]:
        # integer numerators per denominator, one Fraction per z^j (series.collect)
        cells = [{} for _ in range(N + 1)]
        if self.const:
            cells[0][self.const.denominator] = self.const.numerator
        for w, c in self.terms.items():
            n, d = c.numerator, c.denominator
            for cell, x in zip(cells, _word_series(w.letters, N)):
                if x:
                    dx = d * x.denominator
                    cell[dx] = cell.get(dx, 0) + n * x.numerator
        return [collect(cell) for cell in cells]

    def __eq__(self, other):
        if not isinstance(other, PolyLogExpr):
            return NotImplemented
        return (self.var == other.var and self.const == other.const
                and self.terms == other.terms)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.const, self.var))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda wc: (wc[0].weight, wc[0].letters))

    def __str__(self):
        parts = [] if self.const == 0 else [str(self.const)]
        for w, c in self.sorted_terms():
            parts.append(f"{c}*{w}" if c != 1 else str(w))
        return " + ".join(parts) or "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# rational functions of one variable: partial fractions over an alphabet


def _rf_const(q) -> RatFunc:
    return RatFunc.const(_ZVARS, q)


def rf_from_coeffs(coeffs: Sequence[Fraction]) -> RatFunc:
    return RatFunc(Poly.from_terms(_ZVARS, {(m,): rat(c) for m, c in enumerate(coeffs) if c}),
                   _normalized=True)


def rf_monomial(a: Fraction, power: int) -> RatFunc:
    """(z - a)^power as a RatFunc, any integer power."""
    base = rf_from_coeffs([-rat(a), F(1)])
    out = _rf_const(1)
    for _ in range(abs(power)):
        out = out * base
    return out if power >= 0 else _rf_const(1) / out


def _coeffs_eval(coeffs, a):
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * a + c
    return acc


def _coeffs_divide_root(coeffs, a):
    """Divide by (z - a), assuming a is a root; returns quotient coeffs."""
    d = len(coeffs) - 1
    q = [F(0)] * d
    carry = coeffs[d]
    for i in range(d - 1, -1, -1):
        q[i] = carry
        carry = coeffs[i] + a * carry
    if carry != 0:
        raise ValueError("not a root")
    return q


def partial_fractions(r: RatFunc, letters: Sequence[Fraction]):
    """r = polynomial + sum c/(z-a)^m with poles restricted to the alphabet.

    Returns (poly_coeffs, {(a, m): c}).  A pole outside letters (or 0)
    raises UnsupportedClass.
    """
    roots = sorted(set([F(0)] + [rat(a) for a in letters]))
    num = list(r.num.rep)
    den = list(r.den.rep)
    # polynomial part by long division
    poly = [F(0)] * max(0, len(num) - len(den) + 1)
    rem = list(num)
    while len(rem) >= len(den) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(den):
            break
        k = len(rem) - len(den)
        c = rem[-1] / den[-1]
        poly[k] = c
        for i, dc in enumerate(den):
            rem[i + k] -= c * dc
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    # factor denominator over the alphabet
    factors = {}
    dwork = list(den)
    for a in roots:
        while len(dwork) > 1 and _coeffs_eval(dwork, a) == 0:
            dwork = _coeffs_divide_root(dwork, a)
            factors[a] = factors.get(a, 0) + 1
    if len(dwork) != 1:
        raise UnsupportedClass(
            f"denominator {r.den} has poles outside the alphabet {letters}")
    unit = dwork[0]
    poles: Dict[Tuple[Fraction, int], Fraction] = {}
    num_c = [c / unit for c in rem]
    fac = dict(factors)
    # peel highest-order pole coefficients one at a time
    while fac and any(num_c):
        a = next(iter(sorted(fac)))
        m = fac[a]
        rest = [F(1)]
        for b, mb in fac.items():
            power = mb if b != a else 0
            for _ in range(power):
                rest = mul_trunc(rest, [-b, F(1)], len(rest))
        c = _coeffs_eval(num_c, a) / _coeffs_eval(rest, a)
        if c != 0:
            poles[(a, m)] = c
        # num_c - c*rest is divisible by (z - a)
        new_num = [x - c * y for x, y in
                   zip(num_c + [F(0)] * len(rest), rest + [F(0)] * len(num_c))]
        while new_num and new_num[-1] == 0:
            new_num.pop()
        num_c = _coeffs_divide_root(new_num, a) if new_num else []
        if fac[a] == 1:
            del fac[a]
        else:
            fac[a] -= 1
    return poly, poles


# ---------------------------------------------------------------------------
# rational-function-weighted GPL combinations


class GplCombo:
    """sum_w R_w(z) G(w; z); the empty word holds the rational part."""

    __slots__ = ("data", "letters")

    def __init__(self, data: Mapping[Word, RatFunc], letters: Tuple[Fraction, ...]):
        clean = {}
        for w, r in data.items():
            if w and w[-1] == 0:
                raise ValueError(f"trailing-zero word {w}")
            if not r.is_zero():
                clean[w] = r
        object.__setattr__(self, "data", clean)
        object.__setattr__(self, "letters", tuple(letters))

    def __setattr__(self, *a):
        raise AttributeError("GplCombo is immutable")

    @classmethod
    def zero(cls, letters):
        return cls({}, letters)

    @classmethod
    def const(cls, q, letters):
        return cls({(): _rf_const(q)}, letters)

    @classmethod
    def rational(cls, r: RatFunc, letters):
        return cls({(): r}, letters)

    @classmethod
    def word(cls, w, letters, coeff=1):
        return cls({as_word(w): _rf_const(coeff)}, letters)

    def is_zero(self):
        return not self.data

    def __add__(self, other):
        d = dict(self.data)
        for w, r in other.data.items():
            d[w] = d[w] + r if w in d else r
        return GplCombo(d, self.letters)

    def __sub__(self, other):
        return self + other.scale_q(-1)

    def scale_q(self, q):
        q = rat(q)
        return GplCombo({w: r * q for w, r in self.data.items()}, self.letters)

    def scale_rf(self, r: RatFunc):
        return GplCombo({w: rw * r for w, rw in self.data.items()}, self.letters)

    def theta(self) -> "GplCombo":
        """z d/dz using G'(a, w) = G(w)/(z - a)."""
        out: Dict[Word, RatFunc] = {}
        zf = RatFunc.z(_ZVARS)
        for w, r in self.data.items():
            _acc(out, w, r.theta())
            if w:
                kern = zf / rf_monomial(w[0], 1)
                _acc(out, w[1:], r * kern)
        return GplCombo(out, self.letters)

    def value_at_zero(self) -> Fraction:
        """Exact limit at the origin, word terms included."""
        return self.series(0)[0]

    def series(self, N: int) -> List[Fraction]:
        out = [F(0)] * (N + 1)
        for w, r in self.data.items():
            # v <= deg(den), so the series to N + deg(den) covers N + v
            s, v = r.to_biseries(N + r.den.degree(), 0)
            rc = [s.get(j, 0) for j in range(N + v + 1)]
            ws = _word_series(w, N + v)
            conv = mul_trunc(rc, ws, N + v)
            for j in range(v):
                if conv[j] != 0:
                    raise UncancelledPole(f"pole of {r} not cancelled by G{w}")
            for j in range(N + 1):
                out[j] += conv[j + v]
        return out

    def integrate(self) -> "GplCombo":
        """int_0^z of the combination; raises UncancelledPole if divergent.

        Simple pole kernels prepend letters; everything else is integrated
        by parts, and the leftover integrands of each weight level are
        merged into one combination before recursing, so divergent pieces
        produced by different branches get the chance to cancel.
        """
        out: Dict[Word, RatFunc] = {}
        log_residue = F(0)
        current = self
        while not current.is_zero():
            pending: Dict[Word, RatFunc] = {}
            for w, r in current.data.items():
                poly, poles = partial_fractions(r, current.letters)
                antis = []
                if any(poly):
                    antis.append(rf_from_coeffs(
                        [F(0)] + [c / (i + 1) for i, c in enumerate(poly)]))
                for (a, m), c in poles.items():
                    if m == 1:
                        if a == 0 and not w:
                            # pure log pieces cancel across levels or diverge
                            log_residue += c
                        else:
                            _acc(out, (a,) + w, _rf_const(c))
                    else:
                        antis.append(rf_monomial(a, 1 - m) * (c / (1 - m)))
                if not antis:
                    continue
                anti = antis[0]
                for extra in antis[1:]:
                    anti = anti + extra
                # int anti' G(w) = [anti G(w)]_0^z - int anti G'(w)
                b = GplCombo({w: anti}, self.letters).value_at_zero()
                _acc(out, w, anti)
                if b != 0:
                    _acc(out, (), _rf_const(-b))
                if w:
                    _acc(pending, w[1:], -(anti / rf_monomial(w[0], 1)))
            current = GplCombo(pending, current.letters)
        if log_residue != 0:
            raise UncancelledPole("int dt/t of a nonzero rational part")
        return GplCombo(out, self.letters)

    def to_polylog(self, var="z") -> PolyLogExpr:
        """Demand constant coefficients; UnsupportedClass otherwise."""
        terms = {}
        const = F(0)
        for w, r in self.data.items():
            if not r.is_polynomial() or (not r.num.is_zero() and r.num.degree() > 0):
                raise UnsupportedClass(
                    f"layer is not a pure polylog combination: ({r}) G{w}")
            q = r.num.const_value() if not r.num.is_zero() else F(0)
            if not w:
                const += q
            else:
                terms[GplWord(w, var)] = q
        return PolyLogExpr(terms, const, var)

    def __str__(self):
        parts = []
        for w in sorted(self.data, key=lambda w: (len(w), w)):
            parts.append(f"({self.data[w]})*G{w}" if w else f"({self.data[w]})")
        return " + ".join(parts) or "0"

    __repr__ = __str__


def _acc(out: Dict[Word, RatFunc], w: Word, r: RatFunc):
    if w in out:
        out[w] = out[w] + r
    else:
        out[w] = r
    if out[w].is_zero():
        del out[w]

