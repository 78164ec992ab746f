"""Goncharov polylogarithms: words, exact series, and weighted combinations.

Convention: G(a; z) = int_0^z dt/(t-a), G(a, w; z) = int_0^z dt/(t-a) G(w; t),
so G(1; z) = ln(1-z) and Li2(z) = -G(0, 1; z).  Words never end in the
letter 0 (analyticity at the origin); a required dt/t integration against
a series with nonvanishing constant term raises UncancelledPole instead of
producing ln(z).  Integral letters are ints, equal and hashing equal to
their Fractions.  The z-series of a word is a row of integer numerators
over one positive denominator, built without gcds: its coefficients are
nested harmonic sums, cleared by lcm(1..N) and powers of the letters,
the factor of each coefficient tabulated once per letter numerator and N.
One letter kernel, ``_letter_step``, integrates a series against
dt/(t - a): a word's series, cached as a ``BiSeries`` of eps order 0, is
its first letter's step on its suffix's.  One sum of words, ``_word_sum``,
is Horner's rule one level deep: the words that start with a are summed
over their suffixes' cached series, unreduced, and take one step of a, so
only those suffixes are cached, and a word with more than N nonzero
letters, O(z^(N+1)), builds no series.  ``PolyLogExpr.biseries``
is that sum; a GplCombo's series is one ``series.truncated_sum`` with one
piece per kernel, the kernel's row times the sum of its words.

GplCombo is the working representation during iterated integration:
rational functions of the variable multiplying words.  Every kernel has its
poles on the alphabet, so each coefficient is kept in the alphabet's
partial-fraction basis, a dict over the kernels (z - a)^(-m) (a = 0 with
m <= 0 giving the powers z^i), and theta, products and integration act on
that dict in closed form, on integer numerators over one denominator (the
coefficients are nested sums with tiny denominators: Moch, Uwer & Weinzierl,
hep-ph/0110083).  The expansion's fixed kernels are built in the basis too
(``basis_product``), so no RatFunc arithmetic runs; a basis dict becomes a
RatFunc only for omega0, printing and messages (``basis_ratfunc``, without
a gcd).  ``GplCombo.combine`` sums q c over many terms with one collect.
Poles at the origin are checked on the sum over words, so they may
cancel between words.  Final expansion layers are PolyLogExpr values, keyed
by the same letter tuples, with rational coefficients.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import mul
from typing import Dict, Iterable, List, Sequence, Tuple, Union

from .errors import UncancelledPole, UnsupportedClass
from .poly import Poly, _cancel
from .ratfunc import RatFunc
from .scalars import rat
from .series import BiSeries, summed, truncated_sum
from .value import Value

F = Fraction
Letter = Union[int, Fraction]
Word = Tuple[Letter, ...]
Kernel = Tuple[Letter, int]


def _letter(a) -> Letter:
    """An integral letter as an int, any other as a Fraction."""
    a = a if isinstance(a, int) else rat(a)
    return a.numerator if a.denominator == 1 else a


def as_word(letters: Iterable) -> Word:
    w = tuple(_letter(a) for a in letters)
    return term_word(w) if w else w


def term_word(w: Word) -> Word:
    """w, if it can be the word of a PolyLogExpr term: nonempty, not ending in 0."""
    if not w:
        raise ValueError("a PolyLogExpr word must be nonempty")
    if w[-1] == 0:
        raise ValueError(f"word {w} ends in 0 (not analytic at the origin)")
    return w


# bounded; one entry per letter numerator and order, 8 in a 30 s
# `bench/run.py --workload expand` run
@lru_cache(maxsize=256)
def _letter_factors(p: int, N: int) -> Tuple[Tuple[int, ...], Tuple[int, ...], int]:
    """The integers a letter step with letter numerator p needs at order N:
    (p^0..p^(N-1), the factors of z^1..z^N, the factor of the denominator).
    With L = lcm(1..N) and sign that of p^N, z^j takes sign p^(N-j) (L/j) and
    the denominator sign p^N L; for p = 0 they are L/j and L."""
    L = lcm(*range(1, N + 1))
    if p == 0:
        return (), tuple(L // j for j in range(1, N + 1)), L
    pw = [p ** k for k in range(N + 1)]
    sign = 1 if pw[N] > 0 else -1
    return (tuple(pw[:N]), tuple(sign * pw[N - j] * (L // j) for j in range(1, N + 1)),
            sign * pw[N] * L)


def _letter_step(a: Letter, s: BiSeries, N: int) -> BiSeries:
    """int_0^z dt/(t - a) s(t) to z^N, s a series of eps order 0 (G(w) gives
    G(a, w)), not reduced: the one letter kernel of the word series.  For
    a = 0, s must vanish at 0, else UncancelledPole."""
    D, u = s.den, s.nums
    p, q = a.numerator, a.denominator
    pw, f, d = _letter_factors(p, N)
    if p == 0:
        if u[0] != 0:
            raise UncancelledPole("dt/t against constant term")
        return BiSeries._of((0,) + tuple(map(mul, u[1:], f)), D * d, N, 0)
    # conv = u/(t-a) = -sum_m u t^m / a^(m+1) obeys conv_j = (conv_(j-1) - u_(j-1))/a
    # and G(a, w) takes conv_j/j at z^j; for a = p/q the integers
    # C_j = D p^j conv_j = q (C_(j-1) - u_(j-1) p^(j-1)) give
    # conv_j/j = C_j p^(N-j) (L/j) / (D p^N L), the sign of p^N moved into the numerators
    C, out = 0, [0]
    for x, y, g in zip(u, pw, f):
        C = q * (C - x * y)
        out.append(C * g)
    return BiSeries._of(tuple(out), D * d, N, 0)


# bounded; a 30 s `bench/run.py --workload expand` run fills 771 entries (seeds 1 and 53)
@lru_cache(maxsize=16384)
def _word_series(word: Word, N: int) -> BiSeries:
    """G(word; z) to z^N as a BiSeries of eps order 0: z^j has nums[j]/den.

    A word of 1 to 64 letters (an expansion at eps order K writes K + 1 at
    most) takes one letter step from its suffix's cached series; a longer
    one, only ever a stored record's, is built by one loop of letter steps
    from its last letter, with no recursion."""
    cached = 0 < len(word) <= 64
    s = _word_series(word[1:], N) if cached else BiSeries._of((1,) + (0,) * N, 1, N, 0)
    for i in reversed(range(1 if cached else len(word))):
        try:
            s = _letter_step(word[i], s, N)
        except UncancelledPole:
            raise UncancelledPole(f"dt/t against constant term in G{word[i:]}") from None
    return s


def _word_sum(terms: Iterable[Tuple[Word, Union[int, Fraction]]], N: int) -> BiSeries:
    """sum c G(w) over (w, c) pairs to z^N, eps order 0, not reduced, the empty
    word standing for 1: sum_w c_w G(w) = c_() + sum_a I_a(sum_w' c_(a w') G(w')),
    I_a the letter step; a word with more than N nonzero letters is dropped."""
    parts, groups = [], {}
    for w, c in terms:
        if not w:
            parts.append((c, _word_series((), N)))
        elif len(w) - w.count(0) <= N:
            groups.setdefault(w[0], []).append((c, _word_series(w[1:], N)))
    parts += [(1, _letter_step(a, summed(g, N, 0), N)) for a, g in groups.items()]
    return summed(parts, N, 0)


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


class PolyLogExpr(Value):
    """Rational-linear combination of Goncharov words plus a constant.

    ``terms`` maps words, letter tuples interned by ``as_word``, nonempty
    and not ending in 0 (``term_word``), to nonzero coefficients; every
    word is in the variable ``var``.
    ``_of(terms, const, var)`` takes such fields as they are.
    """

    __slots__ = ("terms", "const", "var")

    def __init__(self, terms: Mapping[Word, Fraction] = (), const=0, var="z"):
        clean = {}
        for w, c in (terms.items() if isinstance(terms, Mapping) else terms):
            w = term_word(tuple(map(_letter, w)))
            c = rat(c)
            if c != 0:
                clean[w] = clean.get(w, F(0)) + c
        self._set({w: c for w, c in clean.items() if c != 0}, rat(const), var)

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
        return PolyLogExpr([*self.terms.items(), *other.terms.items()],
                           self.const + other.const, self.var)

    def __sub__(self, other):
        return self + (other * -1 if isinstance(other, PolyLogExpr) else -rat(other))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return PolyLogExpr({w: c * q for w, c in self.terms.items()},
                               self.const * q, self.var)
        if self.var != other.var:
            raise ValueError("variable mismatch")
        # the constant is the coefficient of the empty word, the shuffle identity
        out: Dict[Word, Fraction] = {}
        for w1, c1 in [((), self.const), *self.terms.items()]:
            for w2, c2 in [((), other.const), *other.terms.items()]:
                for s in shuffle_words(w1, w2):
                    out[s] = out.get(s, F(0)) + c1 * c2
        return PolyLogExpr(out, out.pop((), F(0)), self.var)

    __rmul__ = __mul__

    def biseries(self, N: int) -> BiSeries:
        """The z-series to z^N, eps order 0, as ``_word_sum`` leaves it, not
        reduced: the verifier reduces its residual once."""
        return _word_sum([((), self.const), *self.terms.items()], N)

    def series(self, N: int) -> List[Fraction]:
        return self.biseries(N).eps_row(0)

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


# ---------------------------------------------------------------------------
# the partial-fraction basis of an alphabet: kernel (a, m) is (z - a)^(-m),
# with m >= 1 for a letter a and any integer m for a = 0, so (0, -i) is z^i;
# letters are interned by _letter, so the keys hash without Fraction.__hash__
# on integral alphabets.  Inside the module a basis dict holds integer numerators.

_ZERO = 0
ONE: Kernel = (_ZERO, 0)      # the kernel of the constant 1
_Z: Kernel = (_ZERO, -1)
IntBasis = Dict[Kernel, int]
Part = Tuple[Word, int, IntBasis]     # (w, D, r) stands for (r / D) G(w)


def _over_lcm(r: Mapping[Kernel, Fraction]) -> Tuple[int, IntBasis]:
    """A basis dict of rationals as (D, {kernel: int}), D the lcm of its denominators."""
    r = {(_letter(a), m): rat(c) for (a, m), c in r.items() if c}
    D = lcm(*(c.denominator for c in r.values()))
    return D, {k: c.numerator * (D // c.denominator) for k, c in r.items()}


def _collect(parts: Iterable[Part]) -> Tuple[int, Dict[Word, IntBasis]]:
    """The sum of the parts as (L, {word: {kernel: int}}) over the lcm L of
    their denominators, cancelled kernels and emptied words dropped.  The
    parts hold no zero numerators, so a word's first part over L is shared."""
    parts = list(parts)
    L = lcm(*(D for _, D, _ in parts))
    out: Dict[Word, IntBasis] = {}
    for w, D, r in parts:
        if (f := L // D) == 1 and w not in out:
            out[w] = r
            continue
        s = dict(out.get(w, ()))
        for k, c in r.items():
            s[k] = s.get(k, 0) + c * f
        out[w] = {k: c for k, c in s.items() if c}
    return L, {w: s for w, s in out.items() if s}


def partial_fractions(r: RatFunc, letters: Sequence[Fraction]) -> Dict[Kernel, Fraction]:
    """r = sum c_i z^i + sum c/(z-a)^m as {kernel: c}: the denominator factored
    over the alphabet (or 0) by ``_cancel``, a pole outside it raising
    UnsupportedClass; as q z - p = q (z - a), the constant left is rest prod q^m.
    Public API without a src caller, for converting a RatFunc by hand."""
    z, deg = r.vars[-1], r.den.degree()
    roots = sorted(set([_ZERO] + [_letter(a) for a in letters]))
    (rest,), left = _cancel([r.den.rep], r.vars, {(z, a): deg for a in roots})
    if len(rest) != 1:
        raise UnsupportedClass(
            f"denominator {r.den} has poles outside the alphabet {letters}")
    poles = {a: deg - n for a in roots if (n := left.get((z, a), 0)) < deg}
    c0 = F(rest[0] * prod(a.denominator ** m for a, m in poles.items()), r.den.den) * r.num.den
    out = GplCombo({(): {(_ZERO, -i): c / c0 for i, c in enumerate(r.num.rep) if c}})
    for a, m in poles.items():
        out = out.scale({(a, m): 1})
    return out.coeffs()


def basis_product(powers: Mapping[Letter, int]) -> Dict[Kernel, Fraction]:
    """prod (z - a)^e over powers {a: e}, any integer e, as a basis dict; a zero
    power is a factor 1 and scales nothing."""
    out = GplCombo.const(1)
    for a, e in powers.items():
        if e:
            out = out.scale({(a, -e): 1} if a == 0 or e < 0 else
                            {(_ZERO, -k): comb(e, k) * (-a) ** (e - k) for k in range(e + 1)})
    return out.coeffs()


def basis_ratfunc(coeffs: Mapping[Kernel, Fraction], var: str) -> RatFunc:
    """The RatFunc in ``var`` of a basis dict (for omega0, printing and messages).

    The numerator over prod (z - a)^top_a, top_a the highest pole order at
    a, is coprime to it unless a coefficient is 0; trial division at the
    poles clears what those leave, so the result is normalized without a gcd.
    """
    top: Dict[Letter, int] = {}
    for a, m in coeffs:
        if m > 0:
            top[a] = max(top.get(a, 0), m)
    z = Poly.variable((var,), var)
    num = Poly.zero((var,))
    for (a, m), c in coeffs.items():
        term = Poly.const((var,), c)
        for b, e in {**top, a: top.get(a, 0) - m}.items():
            term = term * (z - b) ** e
        num = num + term
    return RatFunc.over(num, {(var, a): m for a, m in top.items()})


# bounded; a seed-1 `bench/run.py --workload expand` stream meets 15 kernel pairs
# (40,252 hits), since the alphabets hold at most three letters
@lru_cache(maxsize=4096)
def _kernel_product(k1: Kernel, k2: Kernel) -> Tuple[int, Tuple[Tuple[Kernel, int], ...]]:
    """The product of two basis kernels in the basis, as (D, ((kernel, numerator), ...))."""
    (a, m), (b, n) = k1, k2
    if a == b:
        return 1, (((_letter(a), m + n), 1),)
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
    D, r = _over_lcm(out)
    return D, tuple(r.items())


def _mul(r1: IntBasis, r2: IntBasis) -> Tuple[int, IntBasis]:
    """r1 r2 as (L, {kernel: int}), L the lcm of the kernel products' denominators."""
    L, out = 1, {}
    for k1, c1 in r1.items():
        for k2, c2 in r2.items():
            D, kp = _kernel_product(k1, k2)
            if L % D:               # a new denominator: the sum so far goes over the lcm
                f = D // gcd(L, D)
                L, out = L * f, {k: c * f for k, c in out.items()}
            c = c1 * c2 * (L // D)
            for k, x in kp:
                out[k] = out.get(k, 0) + c * x
    return L, {k: c for k, c in out.items() if c}


def _theta_kernels(r: IntBasis) -> Tuple[int, IntBasis]:
    """theta (z-a)^-m = -m (z-a)^-m - m a (z-a)^-(m+1); at a = 0, theta z^i = i z^i.
    Over D, the lcm of the letters' denominators."""
    D = lcm(*(a.denominator for a, _ in r))
    out: IntBasis = {}
    for (a, m), c in r.items():
        out[(a, m)] = out.get((a, m), 0) - m * c * D
        if a:
            nk = (a, m + 1)
            out[nk] = out.get(nk, 0) - m * c * a.numerator * (D // a.denominator)
    return D, {k: c for k, c in out.items() if c}


def _kernel_cells(k: Kernel, V: int, N: int) -> Tuple[int, List[Tuple[int, int, int]]]:
    """z^V (z - a)^-m to z^(N+V) as (D, cells), (j, 0, x) standing for x/D at
    z^j, V at least the pole order at 0.  For a letter, 1/a = t/p with p > 0
    and (z - a)^-m = (-1/a)^m sum_j C(m+j-1, j) (z/a)^j, over p^(m+N)."""
    a, m = k
    if a == 0:
        return 1, [(V - m, 0, 1)] if -m <= N else []
    p, t = abs(a.numerator), a.denominator if a > 0 else -a.denominator
    return p ** (m + N), [(V + j, 0, (-t) ** m * t ** j * comb(m + j - 1, j) * p ** (N - j))
                          for j in range(N + 1)]


def _series_sum(terms: Sequence[Tuple[Word, IntBasis]], den: int, N: int) -> List[Fraction]:
    """z-series of sum (r(z)/den) G(w; z) over (w, r) to order N; UncancelledPole
    if the sum keeps a pole at 0 (poles may cancel between words).  With V
    the pole order at 0, one truncated_sum adds one piece per kernel: its
    cells of z^V (z - a)^-m times the ``_word_sum`` of its words to z^(N+V)."""
    V = max((m for _, r in terms for a, m in r if a == 0 and m > 0), default=0)
    words: Dict[Kernel, List[Tuple[Word, int]]] = {}
    for w, r in terms:
        for k, c in r.items():
            words.setdefault(k, []).append((w, c))
    pieces = []
    for k, wc in words.items():
        s, (D, cells) = _word_sum(wc, N + V), _kernel_cells(k, V, N)
        pieces.append((1, cells, D * s.den * den, s.nums))
    s = truncated_sum(pieces, N + V, 0)
    if any(s.nums[:V]):                 # eps order 0: nums holds one numerator per row
        raise UncancelledPole(f"pole at 0 not cancelled in {_terms_str(terms, den)}")
    return s.eps_row(0)[V:]


def _terms_str(terms, den) -> str:
    parts = [(w, basis_ratfunc({k: F(c, den) for k, c in r.items()}, "z")) for w, r in terms]
    return " + ".join(f"({rf})*G{w}" if w else f"({rf})" for w, rf in parts) or "0"


# ---------------------------------------------------------------------------
# rational-function-weighted GPL combinations


class GplCombo(Value):
    """sum_w R_w(z) G(w; z); the empty word holds the rational part.

    ``data`` maps each word to R_w's numerators in the alphabet's partial-
    fraction basis, {kernel: int}, over one ``den`` > 0 prime to them all
    (zero is {} over 1).  The constructor takes basis dicts of rationals,
    copies them and interns the letters of words and kernels.  The
    operations build fresh dicts and may share the inner ones between
    combinations, which nothing writes to after construction; ``_of(den,
    data)`` wraps a fresh dict of nonempty integer basis dicts uncopied.
    """

    __slots__ = ("den", "data")
    __hash__ = None   # data is a dict

    def __init__(self, data: Mapping[Word, Mapping[Kernel, Fraction]]):
        self._set(*_collect((as_word(w), *_over_lcm(r)) for w, r in data.items()))

    def _set(self, den: int, data: Dict[Word, IntBasis]):
        """Take data over den, divided by the gcd of den and every numerator."""
        g = gcd(den, *(c for r in data.values() for c in r.values())) if den != 1 else 1
        if g != 1:
            data, den = {w: {k: c // g for k, c in r.items()} for w, r in data.items()}, den // g
        self._write(den, data)

    @classmethod
    def zero(cls):
        return cls._of(1, {})

    @classmethod
    def const(cls, q):
        return cls({(): {ONE: q}})

    @classmethod
    def word(cls, w, coeff=1):
        return cls({w: {ONE: coeff}})

    def is_zero(self):
        return not self.data

    def coeffs(self, w: Word = ()) -> Dict[Kernel, Fraction]:
        """R_w as a basis dict of rationals, empty for an absent word."""
        return {k: F(c, self.den) for k, c in self.data.get(w, {}).items()}

    @classmethod
    def combine(cls, terms: Iterable[Tuple[Fraction, "GplCombo"]]) -> "GplCombo":
        """sum q c over (q, c) pairs of a rational and a combination, by one _collect."""
        parts: List[Part] = []
        for q, c in terms:
            q = rat(q)
            if q:
                n, d = q.numerator, c.den * q.denominator
                parts += [(w, d, r if n == 1 else {k: x * n for k, x in r.items()})
                          for w, r in c.data.items()]
        return cls._of(*_collect(parts))

    def __add__(self, other):
        return GplCombo.combine(((1, self), (1, other)))

    def __sub__(self, other):
        return GplCombo.combine(((1, self), (-1, other)))

    def scale_q(self, q):
        return GplCombo.combine(((q, self),))

    def scale(self, b: Mapping[Kernel, Fraction]):
        """Multiply every coefficient by the basis dict b."""
        D, b = _over_lcm(b)
        if not b:
            return GplCombo.zero()
        L, data = _collect((w, *_mul(r, b)) for w, r in self.data.items())
        return GplCombo._of(self.den * D * L, data)

    def theta(self) -> "GplCombo":
        """z d/dz using G'(a, w) = G(w)/(z - a)."""
        parts: List[Part] = []
        for w, r in self.data.items():
            parts.append((w, *_theta_kernels(r)))
            if w:
                Dk, kp = _kernel_product(_Z, (w[0], 1))
                Dm, prod = _mul(r, dict(kp))
                parts.append((w[1:], Dk * Dm, prod))
        L, data = _collect(parts)
        return GplCombo._of(self.den * L, data)

    def value_at_zero(self) -> Fraction:
        """Exact limit at the origin, word terms included."""
        return self.series(0)[0]

    def series(self, N: int) -> List[Fraction]:
        return _series_sum(list(self.data.items()), self.den, N)

    def integrate(self) -> "GplCombo":
        """int_0^z of the combination; raises UncancelledPole if divergent.

        Simple pole kernels prepend letters; the other kernels (z-a)^-m,
        z^i among them, have rational antiderivatives, integrated by parts
        against G(w).
        The leftover integrands of each weight level are merged into one
        combination before recursing, and the boundary value at 0 is taken
        once, on the sum of the by-parts terms of all words and levels, so
        divergent pieces produced by different branches get the chance to
        cancel.  Each level is over its own D (times ``den``).
        """
        out, edge, logs = [], [], []      # Parts: the result, the by-parts edge, 1/t pieces
        D, current = 1, self.data
        while current:
            pending: List[Part] = []
            for w, r in current.items():
                Lw = lcm(*(m - 1 for _, m in r if m != 1))
                anti: IntBasis = {}
                for (a, m), c in r.items():
                    if m != 1:
                        anti[(a, m - 1)] = c * (Lw // (1 - m))
                    elif a == 0 and not w:
                        # pure log pieces cancel across levels or diverge
                        logs.append(((), D, {ONE: c}))
                    else:
                        out.append(((a,) + w, D, {ONE: c}))
                if not anti:
                    continue
                # int anti' G(w) = [anti G(w)]_0^z - int anti G'(w)
                edge.append((w, D * Lw, anti))
                out.append((w, D * Lw, anti))
                if w:
                    Dm, prod = _mul(anti, {(w[0], 1): -1})
                    pending.append((w[1:], D * Lw * Dm, prod))
            D, current = _collect(pending)
        if _collect(logs)[1]:
            raise UncancelledPole("int dt/t of a nonzero rational part")
        De, e = _collect(edge)
        b = _series_sum(list(e.items()), self.den * De, 0)[0]
        if b != 0:
            out.append(((), b.denominator, {ONE: -b.numerator * self.den}))
        L, data = _collect(out)
        return GplCombo._of(self.den * L, data)

    def to_polylog(self, var="z") -> PolyLogExpr:
        """Demand constant coefficients; UnsupportedClass otherwise."""
        for w, r in self.data.items():
            if r.keys() != {ONE}:
                rf = basis_ratfunc(self.coeffs(w), var)
                raise UnsupportedClass(f"layer is not a pure polylog combination: ({rf}) G{w}")
        # the words are interned and the coefficients nonzero already
        terms = {w: F(r[ONE], self.den) for w, r in self.data.items()}
        return PolyLogExpr._of(terms, terms.pop((), F(0)), var)

    def __str__(self):
        return _terms_str(sorted(self.data.items(), key=lambda wr: (len(wr[0]), wr[0])), self.den)
