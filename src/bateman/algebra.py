"""Exact two-mode ladder algebra over complex rationals.

Symbols b1, b2, b1+, b2+ obey [b_i, b_j+] = delta_ij with all other pairs
commuting.  Scalars are exact: complex rationals, optionally times the square
root of a squarefree integer (needed for the pi/4 rotation coefficients).
Nothing in this module touches floating point except the explicit to_complex
and matrix_elements evaluators, which exist to cross-validate against the
truncated matrices: matrix_elements walks each word of a poly as one
(position, amplitude) pair over the one-diagonal ladder matrices.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, RadicalMismatch

__all__ = [
    "ExactScalar",
    "LadderPoly",
    "B1_CRE",
    "B2_CRE",
    "B1_ANN",
    "B2_ANN",
    "vacuum_expectation",
    "vacuum_pairing",
    "apply_to_monomial_ket",
    "basis_column",
    "basis_matrix_element",
    "matrix_elements",
    "random_poly",
]

# symbol codes; the numeric order is the canonical word order
# (creators before annihilators, mode 1 before mode 2)
B1_CRE, B2_CRE, B1_ANN, B2_ANN = 0, 1, 2, 3

_SYMBOL_NAMES = {B1_CRE: "b1+", B2_CRE: "b2+", B1_ANN: "b1", B2_ANN: "b2"}
_CONJ_MAP = {B1_CRE: B1_ANN, B2_CRE: B2_ANN, B1_ANN: B1_CRE, B2_ANN: B2_CRE}


@functools.cache
def _square_split(n: int) -> tuple[int, int]:
    """n = s**2 * d with d squarefree; returns (s, d).  n must be >= 1."""
    s, d, f = 1, 1, 2
    while f * f <= n:
        while n % (f * f) == 0:
            n //= f * f
            s *= f
        if n % f == 0:
            n //= f
            d *= f
        f += 1
    return s, d * n


class ExactScalar:
    """(a + i*b) / d * sqrt(root) with integers a, b and d > 0, gcd(a, b, d) = 1.

    One denominator serves both parts, so an operation is integer arithmetic
    and one gcd, and equal scalars store equal parts; re = a/d and im = b/d
    read as Fractions.  The constructor takes rational re and im and moves the
    square part of any positive root into a and b, so root is squarefree.
    Every zero is the one shared zero, of root 1.  Sums of scalars with
    different roots are rejected rather than widened.
    """

    __slots__ = ("a", "b", "d", "root")

    def __new__(cls, re: Fraction | int = 0, im: Fraction | int = 0, root: int = 1):
        if root < 1:
            raise DomainError(f"root must be positive, got {root}")
        re, im = Fraction(re), Fraction(im)
        s, root = _square_split(root)
        return _reduced(re.numerator * im.denominator * s,
                                    im.numerator * re.denominator * s,
                                    re.denominator * im.denominator, root)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "ExactScalar":
        """The one shared zero; no operation changes a scalar once it is built."""
        return _ZERO

    @staticmethod
    def of(value: "ExactScalar | Fraction | int") -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        value = value if isinstance(value, int) else Fraction(value)
        return _reduced(value.numerator, 0, value.denominator, 1)

    # -- queries -----------------------------------------------------------
    re = property(lambda self: Fraction(self.a, self.d))
    im = property(lambda self: Fraction(self.b, self.d))

    def is_zero(self) -> bool:
        return self is _ZERO

    def key(self) -> tuple:
        return (self.re, self.im, self.root)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            other = ExactScalar.of(other)
        if self is _ZERO:
            return other
        if other is _ZERO:
            return self
        if self.root != other.root:
            raise RadicalMismatch(f"cannot add sqrt({self.root}) and sqrt({other.root}) terms")
        d, e = self.d, other.d
        return _reduced(self.a * e + other.a * d, self.b * e + other.b * d, d * e,
                                    self.root)

    def __neg__(self) -> "ExactScalar":
        return _reduced(-self.a, -self.b, self.d, self.root)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-ExactScalar.of(other))

    def _times(self, n: int, m: int) -> "ExactScalar":
        """self times the real rational n/m, m > 0: both parts scaled, the root kept."""
        return self if n == m else _reduced(self.a * n, self.b * n, self.d * m, self.root)

    def __mul__(self, other: "ExactScalar | Fraction | int") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            if isinstance(other, LadderPoly):
                return NotImplemented
            if isinstance(other, (int, Fraction)):
                # a real rational factor, such as a walk weight
                return self._times(other.numerator, other.denominator)
            other = ExactScalar.of(other)
        # a real rational scalar on either side, such as LadderPoly.one()'s
        # coefficient, scales the other: the same value as the general product
        if other.root == 1 and not other.b:
            return self._times(other.a, other.d)
        if self.root == 1 and not self.b:
            return other._times(self.a, self.d)
        s, root = _square_split(self.root * other.root)
        a, b, c, e = self.a, self.b, other.a, other.b
        return _reduced((a * c - b * e) * s, (a * e + b * c) * s, self.d * other.d,
                                    root)

    __rmul__ = __mul__

    def conjugated(self) -> "ExactScalar":
        """i -> -i, which the basis-adapted conjugation pairs with gamma -> -gamma."""
        return _reduced(self.a, -self.b, self.d, self.root) if self.b else self

    def to_complex(self) -> complex:
        # int true division is correctly rounded: a/d is float(self.re), reduced or not
        return complex(self.a / self.d, self.b / self.d) * math.sqrt(self.root)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self is other or (self.a == other.a and self.b == other.b and self.d == other.d
                                 and self.root == other.root)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d, self.root))

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        body = f"({self.re}{'+' if self.b >= 0 else ''}{self.im}j)"
        return body if self.root == 1 else f"{body}*sqrt({self.root})"


def _reduced(a: int, b: int, d: int, root: int, new=object.__new__, gcd=math.gcd) -> ExactScalar:
    """(a + i*b) / d * sqrt(root), d > 0 and root squarefree, in lowest terms; the shared zero
    when a and b are 0.  new and gcd are bound once, as every scalar is built here."""
    if not (a or b):
        return _ZERO
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    out = new(ExactScalar)
    out.a, out.b, out.d, out.root = a, b, d, root
    return out


_ZERO = object.__new__(ExactScalar)
_ZERO.a, _ZERO.b, _ZERO.d, _ZERO.root = 0, 0, 1, 1
ScalarLike = "ExactScalar | Fraction | int"
Word = tuple[int, ...]


def _accumulate(target: dict, key: tuple, coeff: ExactScalar) -> None:
    """Add coeff at key (a word or an occupation pair), dropping a zero sum."""
    old = target.get(key)
    new = coeff if old is None else old + coeff
    if new.is_zero():
        target.pop(key, None)
    else:
        target[key] = new


class LadderPoly:
    """Finite linear combination of ladder words with exact coefficients.

    No stored coefficient is zero, and every word holds symbol codes only.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, "ExactScalar"] | None = None):
        clean: dict[Word, ExactScalar] = {}
        for word, coeff in (terms or {}).items():
            coeff = ExactScalar.of(coeff)
            if coeff.is_zero():
                continue
            for sym in word:
                if sym not in _SYMBOL_NAMES:
                    raise DomainError(f"unknown symbol code {sym!r}")
            _accumulate(clean, tuple(word), coeff)
        self._terms = clean

    @staticmethod
    def _checked(terms: dict[Word, ExactScalar]) -> "LadderPoly":
        """A poly that owns terms, a dict already built as __init__ would build it."""
        out = object.__new__(LadderPoly)
        out._terms = terms
        return out

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "LadderPoly":
        return LadderPoly()

    @staticmethod
    def one() -> "LadderPoly":
        return LadderPoly({(): ExactScalar.of(1)})

    @staticmethod
    def word(symbols: Iterable[int], coeff: "ScalarLike" = 1) -> "LadderPoly":
        return LadderPoly({tuple(symbols): ExactScalar.of(coeff)})

    @staticmethod
    def symbol(sym: int) -> "LadderPoly":
        return _SYMBOLS.get(sym) or LadderPoly.word((sym,))  # built once: polys never change

    # -- queries -----------------------------------------------------------
    @property
    def terms(self) -> dict[Word, ExactScalar]:
        return dict(self._terms)

    def degree(self) -> int:
        return max(map(len, self._terms), default=0)

    def is_zero(self) -> bool:
        return not self._terms

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "LadderPoly") -> "LadderPoly":
        merged = dict(self._terms)
        for word, coeff in other._terms.items():
            _accumulate(merged, word, coeff)
        return LadderPoly._checked(merged)

    def __sub__(self, other: "LadderPoly") -> "LadderPoly":
        return self + (-other)

    def __neg__(self) -> "LadderPoly":
        return LadderPoly._checked({w: -c for w, c in self._terms.items()})

    def __mul__(self, other: "LadderPoly | ScalarLike") -> "LadderPoly":
        if not isinstance(other, LadderPoly):
            scalar = ExactScalar.of(other)  # a product of nonzero scalars is nonzero
            terms = {} if scalar.is_zero() else {w: c * scalar for w, c in self._terms.items()}
            return LadderPoly._checked(terms)
        out: dict[Word, ExactScalar] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                _accumulate(out, w1 + w2, c1 * c2)
        return LadderPoly._checked(out)

    def __rmul__(self, other: "ScalarLike") -> "LadderPoly":
        return self.__mul__(other)

    def conjugated(self) -> "LadderPoly":
        """Basis-adapted conjugation: reverse words, swap b <-> b+, flip i and gamma."""
        out: dict[Word, ExactScalar] = {}
        for word, coeff in self._terms.items():
            new_word = tuple(_CONJ_MAP[s] for s in reversed(word))
            _accumulate(out, new_word, coeff.conjugated())
        return LadderPoly._checked(out)

    def normal_order(self) -> "LadderPoly":
        """Canonical form: creators left of annihilators, mode 1 left of mode 2.

        Each coefficient is scaled once by each integer multiplicity of its
        word's normal form (`_word_normal_form`).
        """
        out: dict[Word, ExactScalar] = {}
        for word, coeff in self._terms.items():
            for canonical, k in _word_normal_form(word):
                _accumulate(out, canonical, coeff._times(k, 1))
        return LadderPoly._checked(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LadderPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(tuple(sorted((w, c.key()) for w, c in self._terms.items())))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for word in sorted(self._terms, key=lambda w: (len(w), w)):
            name = " ".join(_SYMBOL_NAMES[s] for s in word) or "1"
            chunks.append(f"({self._terms[word]!r})*{name}")
        return " + ".join(chunks)


_SYMBOLS = {sym: LadderPoly.word((sym,)) for sym in _SYMBOL_NAMES}


def _word_normal_form(word: Word) -> list[tuple[Word, int]]:
    """[(canonical word, positive integer multiplicity)]: the normal form of one word.

    The modes commute, so each mode is ordered alone: read right to left into
    {(p, q): k} = sum k b+^p b^q, a b+ maps (p, q) to (p+1, q) and a b maps it
    to (p, q+1) plus p times (p-1, q).  The word's form is the product of the
    two modes' forms, in the canonical order b1+ b2+ b1 b2.
    """
    forms = []
    for cre, ann in ((B1_CRE, B1_ANN), (B2_CRE, B2_ANN)):
        form = {(0, 0): 1}
        for sym in reversed(word):
            if sym == cre:
                form = {(p + 1, q): k for (p, q), k in form.items()}
            elif sym == ann:
                lowered: dict[tuple[int, int], int] = {}
                for (p, q), k in form.items():
                    lowered[p, q + 1] = lowered.get((p, q + 1), 0) + k
                    if p:
                        lowered[p - 1, q] = lowered.get((p - 1, q), 0) + p * k
                form = lowered
        forms.append(form)
    return [((B1_CRE,) * p1 + (B2_CRE,) * p2 + (B1_ANN,) * q1 + (B2_ANN,) * q2, k1 * k2)
            for (p1, q1), k1 in forms[0].items() for (p2, q2), k2 in forms[1].items()]


def vacuum_expectation(poly: LadderPoly) -> ExactScalar:
    """<vac| poly |vac>: the constant term of the normal-ordered poly, read from the empty
    word of each term's normal form without building the poly's normal order."""
    total = ExactScalar.zero()
    for word, coeff in poly._terms.items():
        # only a word with zero charge in each mode has the empty word in its form
        if word.count(B1_CRE) == word.count(B1_ANN) and word.count(B2_CRE) == word.count(B2_ANN):
            total = total + coeff._times(dict(_word_normal_form(word)).get((), 0), 1)
    return total


def vacuum_pairing(bra: LadderPoly, ket: LadderPoly) -> ExactScalar:
    """<vac| bra * ket |vac>."""
    return vacuum_expectation(bra * ket)


def apply_to_monomial_ket(op: LadderPoly, n1: int, n2: int) -> dict[tuple[int, int], ExactScalar]:
    """Amplitudes of op b1+^n1 b2+^n2 |vac> on the monomial states b1+^k1 b2+^k2 |vac>.

    A word keeps a monomial state one monomial: b lowers with integer weight
    k, b+ raises with weight 1, and a zero weight ends the walk.  So each word
    is walked as (k1, k2, weight) and its exact coefficient is multiplied once.
    """
    if n1 < 0 or n2 < 0:
        raise DomainError(f"occupation numbers must be >= 0, got ({n1}, {n2})")
    result: dict[tuple[int, int], ExactScalar] = {}
    for word, coeff in op._terms.items():
        k1, k2, weight = n1, n2, 1
        for sym in reversed(word):
            if sym == B1_ANN:
                weight *= k1
                k1 -= 1
            elif sym == B2_ANN:
                weight *= k2
                k2 -= 1
            elif sym == B1_CRE:
                k1 += 1
            else:
                k2 += 1
            if not weight:
                break
        if weight:
            _accumulate(result, (k1, k2), coeff * weight)
    return result


def basis_column(op: LadderPoly, n1: int, n2: int) -> dict[tuple[int, int], ExactScalar]:
    """{(m1, m2): <<m1, m2| op |n1, n2>>}, the nonzero elements of one ket's column.

    The normalized basis vectors are the creator monomials over
    sqrt(n1! n2!), so each monomial amplitude is scaled by the surd
    sqrt(m1! m2! / n1! n2!).  The dual bra carries the same normalization as
    the ket, not a complex conjugate; the surd bookkeeping keeps the elements
    exact when the factorial ratio is not a perfect square.
    """
    amplitudes = apply_to_monomial_ket(op, n1, n2)
    ket_norm = math.factorial(n1) * math.factorial(n2)
    return {bra: amp * _normalized(*bra, ket_norm) for bra, amp in amplitudes.items()}


@functools.cache
def _normalized(m1: int, m2: int, ket_norm: int) -> ExactScalar:
    """sqrt(m1! m2! / ket_norm), the factor of a monomial amplitude on b1+^m1 b2+^m2 |vac>."""
    ratio = Fraction(math.factorial(m1) * math.factorial(m2), ket_norm)
    s, d = _square_split(ratio.numerator * ratio.denominator)  # sqrt(p/q) = sqrt(p*q)/q
    return ExactScalar(Fraction(s, ratio.denominator), 0, d)


def basis_matrix_element(m1: int, m2: int, op: LadderPoly, n1: int, n2: int) -> ExactScalar:
    """<<m1, m2| op |n1, n2>>: the element of basis_column(op, n1, n2) at (m1, m2), with only
    that amplitude normalized."""
    if min(m1, m2, n1, n2) < 0:
        raise DomainError("occupation numbers must be >= 0")
    amp = apply_to_monomial_ket(op, n1, n2).get((m1, m2))
    if amp is None:
        return ExactScalar.zero()
    return amp * _normalized(m1, m2, math.factorial(n1) * math.factorial(n2))


def matrix_elements(elements: list[tuple]) -> list[complex]:
    """[<bra| poly |ket> for ladder, poly, bra, ket in elements] on the truncated ladder
    matrices; the float route.  bra and ket are occupation pairs; the ladders may differ.

    Every ladder matrix stores one diagonal, so each word of each poly is walked as one
    (position, amplitude) pair, from its poly's ket with amplitude 1.  The ladders lie end
    to end in one table per symbol of weights and next positions, plus a sink of weight 0
    for a word that leaves its space.  All words advance together, right to left: each
    position from the right is one gather and one multiply, 0j + weight * amplitude, the
    multiplies of the whole-matrix walk bit for bit.  Each poly sums its words' amplitudes
    at its bra in term order.  An element whose ladder holds a non-finite entry reads NaN.
    """
    ladders = list({id(lad): lad for lad, *_ in elements}.values())
    firsts = np.cumsum([0] + [lad.space.dim for lad in ladders]).tolist()
    weights = np.zeros((4, firsts[-1] + 1), dtype=complex)  # the last position is the sink
    moves = np.full((4, firsts[-1] + 1), firsts[-1], dtype=np.intp)
    broken = set()
    for lad, base in zip(ladders, firsts):
        # the symbol codes 0 to 3 name b1+, b2+, b1, b2
        for sym, op in enumerate((lad.a1_dag, lad.a2_dag, lad.a1, lad.a2)):
            if len(op.diagonals) != 1:
                raise DomainError("every ladder matrix must store exactly one diagonal")
            (k, w), = op.diagonals.items()
            if not np.isfinite(w).all():
                broken.add(id(lad))
                continue
            lo, hi = max(0, -k), lad.space.dim - max(0, k)
            # entry (r, r + k) takes column r + k to row r
            weights[sym, base + lo + k:base + hi + k] = w
            moves[sym, base + lo + k:base + hi + k] = np.arange(base + lo, base + hi)
    first = dict(zip(map(id, ladders), firsts))
    kets = [first[id(lad)] + lad.space.index(*ket) for lad, _, _, ket in elements]
    bras = [first[id(lad)] + lad.space.index(*bra) for lad, _, bra, _ in elements]
    counts = np.array([len(poly._terms) for _, poly, _, _ in elements], dtype=np.intp)
    words = [word for _, poly, _, _ in elements for word in poly._terms]
    lengths = np.fromiter(map(len, words), dtype=np.intp, count=len(words))
    # longest words first, so the words still walking at each position are a prefix
    order = np.argsort(-lengths, kind="stable")
    symbols = np.fromiter(itertools.chain.from_iterable(words), dtype=np.intp)
    last = (np.cumsum(lengths) - 1)[order]  # each word's rightmost symbol in symbols
    walking = np.count_nonzero(lengths[:, None] > np.arange(lengths.max(initial=0)), axis=0)
    rows = np.repeat(kets, counts)[order]
    amps = np.ones(len(words), dtype=complex)
    for position, count in enumerate(walking.tolist()):
        sym, at = symbols[last[:count] - position], rows[:count]
        amps[:count] = 0j + weights[sym, at] * amps[:count]
        rows[:count] = moves[sym, at]
    values = np.zeros(len(words), dtype=complex)
    values[order] = np.where(rows == np.repeat(bras, counts)[order], amps, 0j)
    values *= [coeff.to_complex() for _, poly, _, _ in elements for coeff in poly._terms.values()]
    starts = np.cumsum(counts) - counts
    totals = np.zeros(len(elements), dtype=complex)
    for term in range(int(counts.max(initial=0))):
        has = counts > term
        totals[has] += values[starts[has] + term]
    totals[[id(lad) in broken for lad, *_ in elements]] = complex(math.nan, math.nan)
    return list(totals)


#: the fraction n/d as the pair (n, d) at index 9 * (n + 9) + d - 1, for n in -9..9 and d in 1..9
_DRAWN_FRACTIONS = tuple((n, d) for n in range(-9, 10) for d in range(1, 10))


def _below(bits, n: int, k: int) -> int:
    """A draw from range(n) with bits = rng.getrandbits and k = n.bit_length(), by CPython's
    rejection rule (Random._randbelow_with_getrandbits): k bits, redrawn while >= n.  So
    rng.randint(low, high) draws low + _below(bits, n, k) with n = high - low + 1."""
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def random_poly(rng, max_degree: int = 6, max_terms: int = 5) -> LadderPoly:
    """Random exact polynomial for the oracle-vs-matrix validation suite.

    The draws are rng.randint's, in the same order: the number of terms, then
    per term the word's length, its symbols and the coefficient's numerators
    and denominators.  Each range's (n, n.bit_length()) is resolved once.
    """
    bits = rng.getrandbits
    terms_n, length_n = max_terms, max_degree + 1
    terms_k, length_k = terms_n.bit_length(), length_n.bit_length()
    terms: dict[Word, ExactScalar] = {}
    for _ in range(1 + _below(bits, terms_n, terms_k)):
        word = tuple([_below(bits, 4, 3) for _ in range(_below(bits, length_n, length_k))])
        # numerator -9..9 (19 values, 5 bits), then denominator 1..9 (9 values, 4 bits)
        a, d = _DRAWN_FRACTIONS[9 * _below(bits, 19, 5) + _below(bits, 9, 4)]
        b, e = _DRAWN_FRACTIONS[9 * _below(bits, 19, 5) + _below(bits, 9, 4)]
        _accumulate(terms, word, _reduced(a * e, b * d, d * e, 1))
    return LadderPoly._checked(terms)
