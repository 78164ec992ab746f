"""Goncharov polylogarithms: words, exact series, and weighted combinations.

Convention: G(a; z) = int_0^z dt/(t-a), G(a, w; z) = int_0^z dt/(t-a) G(w; t),
so G(1; z) = ln(1-z) and Li2(z) = -G(0, 1; z).  Words never end in the
letter 0 (analyticity at the origin); a required dt/t integration against
a series with nonvanishing constant term raises UncancelledPole instead of
producing ln(z).  Integral letters are ints, equal and hashing equal to
their Fractions.  The z-series of a word is a row of integer numerators
over one positive denominator, built without gcds: its coefficients are
nested harmonic sums, cleared by lcm(1..N) and powers of the letters.
That row is a ``BiSeries`` of eps order 0, so sums over words and
products with kernel rows are the oracle's own integer-row operations.

GplCombo is the working representation during iterated integration:
rational functions of the variable multiplying words.  Every kernel has its
poles on the alphabet, so each coefficient is kept in the alphabet's
partial-fraction basis, a dict over the kernels (z - a)^(-m) (a = 0 with
m <= 0 giving the powers z^i), and theta, products and integration act on
that dict in closed form.  The expansion's fixed kernels are built in the
basis too (``basis_product``), so no RatFunc arithmetic runs; a basis dict
becomes a RatFunc only for omega0, printing and messages (``basis_ratfunc``,
without a gcd).  Poles at the origin are checked on the sum over words, so
they may cancel between words.  Final expansion layers are PolyLogExpr
values, keyed by the same letter tuples, with rational coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

from .errors import UncancelledPole, UnsupportedClass
from .poly import Poly, _cancel, _factor_product
from .ratfunc import RatFunc
from .scalars import rat
from .series import BiSeries, combine

F = Fraction
Letter = Union[int, Fraction]
Word = Tuple[Letter, ...]
Kernel = Tuple[Letter, int]

_ZVARS = ("z",)


def _letter(a) -> Letter:
    """An integral letter as an int, any other as a Fraction."""
    a = a if isinstance(a, int) else rat(a)
    return a.numerator if a.denominator == 1 else a


def as_word(letters: Iterable) -> Word:
    w = tuple(_letter(a) for a in letters)
    if w and w[-1] == 0:
        raise ValueError(f"word {w} ends in 0 (not analytic at the origin)")
    return w


# bounded; a 30 s `bench/run.py --workload expand` run fills about 2,300 entries
@lru_cache(maxsize=16384)
def _word_series(word: Word, N: int) -> Tuple[int, Tuple[int, ...]]:
    """G(word; z) to z^N as (D, nums): the coefficient of z^j is nums[j]/D, D > 0."""
    if not word:
        return 1, (1,) + (0,) * N
    a, (D, u) = word[0], _word_series(word[1:], N)
    L = lcm(*range(1, N + 1))
    if a == 0:
        if u[0] != 0:
            raise UncancelledPole(f"dt/t against constant term in G{word}")
        return D * L, (0,) + tuple(u[j] * (L // j) for j in range(1, N + 1))
    # conv = u/(t-a) = -sum_m u t^m / a^(m+1) obeys conv_j = (conv_(j-1) - u_(j-1))/a
    # and G(a, w) takes conv_j/j at z^j; for a = p/q the integers
    # C_j = D p^j conv_j = q (C_(j-1) - u_(j-1) p^(j-1)) give
    # conv_j/j = C_j p^(N-j) (L/j) / (D p^N L), the sign of p^N moved into the numerators
    p, q = a.numerator, a.denominator
    pw = [p ** k for k in range(N + 1)]
    sign = 1 if pw[N] > 0 else -1
    C, out = 0, [0]
    for j in range(1, N + 1):
        C = q * (C - u[j - 1] * pw[j - 1])
        out.append(sign * C * pw[N - j] * (L // j))
    return sign * D * pw[N] * L, tuple(out)


def _word_biseries(word: Word, N: int) -> BiSeries:
    """G(word; z) to z^N as a BiSeries in z alone (eps order 0)."""
    D, nums = _word_series(word, N)
    return BiSeries.from_ints(nums, D, N, 0)


def gpl_word_series(word, N: int) -> List[Fraction]:
    """Exact z-series of G(word; z) to order N."""
    return _word_biseries(as_word(word), N).eps_row(0)


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


class PolyLogExpr:
    """Rational-linear combination of Goncharov words plus a constant.

    ``terms`` maps nonempty words, letter tuples interned by ``as_word``,
    to nonzero coefficients; every word is in the variable ``var``.
    """

    __slots__ = ("terms", "const", "var")

    def __init__(self, terms: Mapping[Word, Fraction] = (), const=0, var="z"):
        clean = {}
        for w, c in (terms.items() if isinstance(terms, Mapping) else terms):
            w = as_word(w)
            if not w:
                raise ValueError("a PolyLogExpr word must be nonempty")
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
        return max(map(len, self.terms), default=0)

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
        out: Dict[Word, Fraction] = {}
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
                for s in shuffle_words(w1, w2):
                    out[s] = out.get(s, F(0)) + c1 * c2
        return PolyLogExpr(out, const, self.var)

    __rmul__ = __mul__

    def series(self, N: int) -> List[Fraction]:
        # the constant is the coefficient of the empty word, whose series is 1
        terms = [(self.const, _word_biseries((), N))]
        terms += [(c, _word_biseries(w, N)) for w, c in self.terms.items()]
        return combine(terms, N, 0).eps_row(0)

    def __eq__(self, other):
        if not isinstance(other, PolyLogExpr):
            return NotImplemented
        return (self.var == other.var and self.const == other.const
                and self.terms == other.terms)

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.const, self.var))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda wc: (len(wc[0]), wc[0]))

    def __str__(self):
        parts = [] if self.const == 0 else [str(self.const)]
        for w, c in self.sorted_terms():
            g = f"G({','.join(map(str, w))};{self.var})"
            parts.append(f"{c}*{g}" if c != 1 else g)
        return " + ".join(parts) or "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the partial-fraction basis of an alphabet: kernel (a, m) is (z - a)^(-m),
# with m >= 1 for a letter a and any integer m for a = 0, so (0, -i) is z^i;
# letters are interned by _letter, so the keys hash without Fraction.__hash__
# on integral alphabets

_ZERO = 0
ONE: Kernel = (_ZERO, 0)      # the kernel of the constant 1
_Z: Kernel = (_ZERO, -1)


def partial_fractions(r: RatFunc, letters: Sequence[Fraction]) -> Dict[Kernel, Fraction]:
    """r = sum c_i z^i + sum c/(z-a)^m as {kernel: c}: the denominator factored
    over the alphabet (or 0), a pole outside it raising UnsupportedClass.
    Public API without a src caller, for converting a RatFunc by hand."""
    den = r.den
    factors = {}
    for a in sorted(set([_ZERO] + [_letter(a) for a in letters])):
        while den.degree() > 0 and (q := den.div_root("z", a)) is not None:
            den = q
            factors[a] = factors.get(a, 0) + 1
    if den.degree() != 0:
        raise UnsupportedClass(
            f"denominator {r.den} has poles outside the alphabet {letters}")
    c0 = den.const_value() * r.num.den
    out = {(_ZERO, -i): c / c0 for i, c in enumerate(r.num.rep) if c}
    for a, m in factors.items():
        out = _mul(out, {(a, m): F(1)})
    return out


def basis_product(powers: Mapping[Letter, int]) -> Dict[Kernel, Fraction]:
    """prod (z - a)^e over powers {a: e}, any integer e, as a basis dict."""
    out = {ONE: F(1)}
    for a, e in powers.items():
        a = _letter(a)
        out = _mul(out, {(a, -e): F(1)} if a == 0 or e < 0 else
                   {(_ZERO, -k): F(comb(e, k) * (-a) ** (e - k)) for k in range(e + 1)})
    return out


def basis_ratfunc(coeffs: Mapping[Kernel, Fraction]) -> RatFunc:
    """The RatFunc of a basis dict (for omega0, printing and messages).

    The numerator over prod (z - a)^top_a, top_a the highest pole order at
    a, is coprime to it unless a coefficient is 0; trial division at the
    poles clears what those leave, so the result is normalized without a gcd.
    """
    top: Dict[Letter, int] = {}
    for a, m in coeffs:
        if m > 0:
            top[a] = max(top.get(a, 0), m)
    z = Poly.variable(_ZVARS, "z")
    num = Poly.zero(_ZVARS)
    for (a, m), c in coeffs.items():
        term = Poly.const(_ZVARS, c)
        for b, e in {**top, a: top.get(a, 0) - m}.items():
            term = term * (z - b) ** e
        num = num + term
    (num,), left = _cancel([num], {z - a: m for a, m in top.items()})
    return RatFunc(num, _factor_product(_ZVARS, 1, left), _normalized=True)


# bounded; a seed-1 `bench/run.py --workload expand` stream meets 15 kernel pairs
# (40,252 hits), since the alphabets hold at most three letters
@lru_cache(maxsize=4096)
def _kernel_product(k1: Kernel, k2: Kernel) -> Tuple[Tuple[Kernel, Fraction], ...]:
    """The product of two basis kernels, expanded in the basis."""
    (a, m), (b, n) = k1, k2
    if a == b:
        return (((a, m + n), F(1)),)
    if n <= 0:
        (a, m), (b, n) = (b, n), (a, m)
    out: Dict[Kernel, Fraction] = {}
    if m <= 0:
        # z^i = sum_k C(i,k) b^(i-k) (z-b)^k; the powers k >= n are polynomials
        for k in range(1 - m):
            c = comb(-m, k) * b ** (-m - k)
            if k < n:
                out[(b, n - k)] = c
            else:
                for l in range(k - n + 1):
                    kl = (_ZERO, -l)
                    out[kl] = out.get(kl, 0) + c * comb(k - n, l) * (-b) ** (k - n - l)
    else:
        # expand each pole factor at the other's pole: (z-b)^-n around z = a and back
        for (p, mp), (q, mq) in (((a, m), (b, n)), ((b, n), (a, m))):
            for j in range(mp):
                out[(p, mp - j)] = F(comb(mq + j - 1, j) * (-1) ** j, (p - q) ** (mq + j))
    return tuple((k, F(c)) for k, c in out.items() if c)


def _mul(r1: Mapping[Kernel, Fraction], r2: Mapping[Kernel, Fraction]) -> Dict[Kernel, Fraction]:
    out: Dict[Kernel, Fraction] = {}
    for k1, c1 in r1.items():
        for k2, c2 in r2.items():
            c = c1 * c2
            for k, x in _kernel_product(k1, k2):
                out[k] = out.get(k, 0) + c * x
    return {k: c for k, c in out.items() if c}


def _merge(out: Dict[Word, Dict[Kernel, Fraction]], w: Word, r: Mapping[Kernel, Fraction]):
    """out[w] += r in a fresh dict, dropping cancelled kernels and emptied words."""
    s = dict(out.get(w, ()))
    for k, c in r.items():
        s[k] = s.get(k, 0) + c
    s = {k: c for k, c in s.items() if c}
    if s:
        out[w] = s
    else:
        out.pop(w, None)


def _theta_coeffs(r: Mapping[Kernel, Fraction]) -> Dict[Kernel, Fraction]:
    """theta (z-a)^-m = -m (z-a)^-m - m a (z-a)^-(m+1); at a = 0, theta z^i = i z^i."""
    out: Dict[Kernel, Fraction] = {}
    for k, c in r.items():
        a, m = k
        out[k] = out.get(k, 0) - m * c
        if a:
            nk = (a, m + 1)
            out[nk] = out.get(nk, 0) - m * a * c
    return {k: c for k, c in out.items() if c}


def _pole_series(a: Letter, m: int, n: int) -> Tuple[Fraction, ...]:
    """(z-a)^-m = (-a)^-m sum_k C(m+k-1, k) (z/a)^k to z^n, for a != 0."""
    t = F(-1, a) ** m
    out = [t]
    for k in range(1, n + 1):
        t = t * (m + k - 1) / (k * a)
        out.append(t)
    return tuple(out)


def _laurent(w: Word, r: Mapping[Kernel, Fraction], N: int, V: int) -> BiSeries:
    """z^V r(z) G(w; z) to z^(N+V), V at least the pole order of r at 0."""
    M = N + V
    rc = [F(0)] * (M + 1)          # the series of z^V r(z)
    for (a, m), c in r.items():
        if a != 0:
            for j, x in enumerate(_pole_series(a, m, N)):
                rc[j + V] += c * x
        elif m >= -N:
            rc[V - m] += c
    return BiSeries([(x,) for x in rc]) * _word_biseries(w, M)


def _series_sum(terms: Sequence[Tuple[Word, Mapping[Kernel, Fraction]]], N: int) -> List[Fraction]:
    """z-series of sum r(z) G(w; z) over (w, r) to order N; UncancelledPole
    if the sum keeps a pole at 0 (poles may cancel between words)."""
    V = max((m for _, r in terms for a, m in r if a == 0 and m > 0), default=0)
    s = combine(((1, _laurent(w, r, N, V)) for w, r in terms), N + V, 0)
    if V and not s.crop(V - 1, 0).is_zero():
        raise UncancelledPole(f"pole at 0 not cancelled in {_terms_str(terms)}")
    return s.div_z(V).eps_row(0)


def _terms_str(terms) -> str:
    parts = [f"({basis_ratfunc(r)})*G{w}" if w else f"({basis_ratfunc(r)})" for w, r in terms]
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# rational-function-weighted GPL combinations


class GplCombo:
    """sum_w R_w(z) G(w; z); the empty word holds the rational part.

    ``data`` maps each word to R_w in the alphabet's partial-fraction basis,
    {kernel: Fraction}.  The constructor copies what it is given and
    interns the letters of words and kernels.  The operations build fresh
    dicts and may share the inner ones between combinations, which nothing
    writes to after construction.
    """

    __slots__ = ("data", "letters")

    def __init__(self, data: Mapping[Word, Mapping[Kernel, Fraction]], letters: Sequence[Letter]):
        letters = tuple(_letter(a) for a in letters)
        clean = {}
        for w, r in data.items():
            r = {(_letter(a), m): c for (a, m), c in r.items() if c}
            if r:
                clean[as_word(w)] = r
        object.__setattr__(self, "data", clean)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def _of(cls, data: Dict[Word, Dict[Kernel, Fraction]], letters: Tuple[Letter, ...]):
        """Wrap a fresh dict of nonempty basis dicts without checking or copying it."""
        s = object.__new__(cls)
        object.__setattr__(s, "data", data)
        object.__setattr__(s, "letters", letters)
        return s

    def __setattr__(self, *a):
        raise AttributeError("GplCombo is immutable")

    @classmethod
    def zero(cls, letters):
        return cls({}, letters)

    @classmethod
    def const(cls, q, letters):
        return cls({(): {ONE: rat(q)}}, letters)

    @classmethod
    def word(cls, w, letters, coeff=1):
        return cls({as_word(w): {ONE: rat(coeff)}}, letters)

    def is_zero(self):
        return not self.data

    def __add__(self, other):
        d = dict(self.data)
        for w, r in other.data.items():
            _merge(d, w, r)
        return GplCombo._of(d, self.letters)

    def __sub__(self, other):
        return self + other.scale_q(-1)

    def scale_q(self, q):
        q = rat(q)
        if not q:
            return GplCombo.zero(self.letters)
        return GplCombo._of({w: {k: c * q for k, c in r.items()}
                             for w, r in self.data.items()}, self.letters)

    def scale(self, b: Mapping[Kernel, Fraction]):
        """Multiply every coefficient by the basis dict b."""
        if not b:
            return GplCombo.zero(self.letters)
        return GplCombo._of({w: _mul(rw, b) for w, rw in self.data.items()}, self.letters)

    def theta(self) -> "GplCombo":
        """z d/dz using G'(a, w) = G(w)/(z - a)."""
        out: Dict[Word, Dict[Kernel, Fraction]] = {}
        for w, r in self.data.items():
            _merge(out, w, _theta_coeffs(r))
            if w:
                _merge(out, w[1:], _mul(r, dict(_kernel_product(_Z, (w[0], 1)))))
        return GplCombo._of(out, self.letters)

    def value_at_zero(self) -> Fraction:
        """Exact limit at the origin, word terms included."""
        return self.series(0)[0]

    def series(self, N: int) -> List[Fraction]:
        return _series_sum(list(self.data.items()), N)

    def integrate(self) -> "GplCombo":
        """int_0^z of the combination; raises UncancelledPole if divergent.

        Simple pole kernels prepend letters; the other kernels (z-a)^-m,
        z^i among them, have rational antiderivatives, integrated by parts
        against G(w).
        The leftover integrands of each weight level are merged into one
        combination before recursing, and the boundary value at 0 is taken
        once, on the sum of the by-parts terms of all words and levels, so
        divergent pieces produced by different branches get the chance to
        cancel.
        """
        out: Dict[Word, Dict[Kernel, Fraction]] = {}
        edge: List[Tuple[Word, Dict[Kernel, Fraction]]] = []
        log_residue = F(0)
        current = self.data
        while current:
            pending: Dict[Word, Dict[Kernel, Fraction]] = {}
            for w, r in current.items():
                anti: Dict[Kernel, Fraction] = {}
                for (a, m), c in r.items():
                    if m != 1:
                        anti[(a, m - 1)] = c / (1 - m)
                    elif a == 0 and not w:
                        # pure log pieces cancel across levels or diverge
                        log_residue += c
                    else:
                        _merge(out, (a,) + w, {ONE: c})
                if not anti:
                    continue
                # int anti' G(w) = [anti G(w)]_0^z - int anti G'(w)
                edge.append((w, anti))
                _merge(out, w, anti)
                if w:
                    _merge(pending, w[1:], _mul(anti, {(w[0], 1): F(-1)}))
            current = pending
        if log_residue != 0:
            raise UncancelledPole("int dt/t of a nonzero rational part")
        b = _series_sum(edge, 0)[0]
        if b != 0:
            _merge(out, (), {ONE: -b})
        return GplCombo._of(out, self.letters)

    def to_polylog(self, var="z") -> PolyLogExpr:
        """Demand constant coefficients; UnsupportedClass otherwise."""
        terms = {}
        const = F(0)
        for w, r in self.data.items():
            if r.keys() != {ONE}:
                raise UnsupportedClass(
                    f"layer is not a pure polylog combination: ({basis_ratfunc(r)}) G{w}")
            if not w:
                const += r[ONE]
            else:
                terms[w] = r[ONE]
        return PolyLogExpr(terms, const, var)

    def __str__(self):
        return _terms_str(sorted(self.data.items(), key=lambda wr: (len(wr[0]), wr[0])))

    __repr__ = __str__
