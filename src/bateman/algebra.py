"""Exact two-mode ladder algebra over complex rationals.

Symbols b1, b2, b1+, b2+ obey [b_i, b_j+] = delta_ij with all other pairs
commuting.  Scalars are exact: complex rationals, optionally times the square
root of a squarefree integer (needed for the pi/4 rotation coefficients).
Nothing in this module touches floating point except the explicit to_complex,
to_matrix and matrix_elements evaluators, which exist to cross-validate
against the truncated matrices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, RadicalMismatch
from .fock import Operator, identity

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
    "to_matrix",
    "matrix_elements",
    "random_poly",
]

# symbol codes; the numeric order is the canonical word order
# (creators before annihilators, mode 1 before mode 2)
B1_CRE, B2_CRE, B1_ANN, B2_ANN = 0, 1, 2, 3

_SYMBOL_NAMES = {B1_CRE: "b1+", B2_CRE: "b2+", B1_ANN: "b1", B2_ANN: "b2"}
_CONJ_MAP = {B1_CRE: B1_ANN, B2_CRE: B2_ANN, B1_ANN: B1_CRE, B2_ANN: B2_CRE}


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


_FRACTION_ZERO = Fraction(0)


class ExactScalar:
    """(re + i*im) * sqrt(root) with exact rational re and im.

    The constructor takes any positive root and moves its square part into re
    and im, so root is squarefree; 1 in almost every in-scope value.  Every
    zero is the one shared zero, of root 1.  Sums of scalars with different
    roots are rejected rather than widened.
    """

    __slots__ = ("re", "im", "root")

    def __new__(cls, re: Fraction | int = 0, im: Fraction | int = 0, root: int = 1):
        if root < 1:
            raise DomainError(f"root must be positive, got {root}")
        re, im = Fraction(re), Fraction(im)
        if root > 1:
            s, root = _square_split(root)
            re, im = re * s, im * s
        return ExactScalar._checked(re, im, root)

    @staticmethod
    def _checked(re: Fraction, im: Fraction, root: int) -> "ExactScalar":
        """The scalar of squarefree root; the shared zero when both parts are 0."""
        if not (re or im):
            return _ZERO
        out = object.__new__(ExactScalar)
        out.re, out.im, out.root = re, im, root
        return out

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "ExactScalar":
        """The one shared zero; no operation changes a scalar once it is built."""
        return _ZERO

    @staticmethod
    def of(value: "ExactScalar | Fraction | int") -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        return ExactScalar._checked(Fraction(value), _FRACTION_ZERO, 1)  # root 1: nothing to split

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return self is _ZERO

    def key(self) -> tuple:
        return (self.re, self.im, self.root)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        other = ExactScalar.of(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.root != other.root:
            raise RadicalMismatch(f"cannot add sqrt({self.root}) and sqrt({other.root}) terms")
        return ExactScalar._checked(self.re + other.re, self.im + other.im, self.root)

    def __neg__(self) -> "ExactScalar":
        return self if self is _ZERO else ExactScalar._checked(-self.re, -self.im, self.root)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-ExactScalar.of(other))

    def _scaled(self, k: int | Fraction) -> "ExactScalar":
        """self times the real rational k: both parts scaled, the root kept."""
        if k == 1:
            return self
        if not k:
            return _ZERO
        return ExactScalar._checked(self.re * k, self.im * k, self.root)

    def __mul__(self, other: "ExactScalar | Fraction | int") -> "ExactScalar":
        if isinstance(other, LadderPoly):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            # a real rational factor, such as a walk weight
            return self._scaled(other)
        other = ExactScalar.of(other)
        # a real rational scalar on either side, such as LadderPoly.one()'s
        # coefficient, scales the other: the same value as the general product
        if other.root == 1 and not other.im:
            return self._scaled(other.re)
        if self.root == 1 and not self.im:
            return other._scaled(self.re)
        s, d = (1, 1) if self.root == other.root == 1 else _square_split(self.root * other.root)
        re = self.re * other.re - self.im * other.im
        im = self.re * other.im + self.im * other.re
        if s != 1:
            re, im = re * s, im * s
        return ExactScalar._checked(re, im, d)

    __rmul__ = __mul__

    def conjugated(self) -> "ExactScalar":
        """i -> -i, which the basis-adapted conjugation pairs with gamma -> -gamma."""
        return ExactScalar._checked(self.re, -self.im, self.root)

    def to_complex(self) -> complex:
        # float(Fraction) is this division, made through numbers.Rational.__float__
        return complex(self.re.numerator / self.re.denominator,
                       self.im.numerator / self.im.denominator) * math.sqrt(self.root)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self is other or self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        body = f"({self.re}{'+' if self.im >= 0 else ''}{self.im}j)"
        return body if self.root == 1 else f"{body}*sqrt({self.root})"


_ZERO = object.__new__(ExactScalar)
_ZERO.re, _ZERO.im, _ZERO.root = _FRACTION_ZERO, _FRACTION_ZERO, 1
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
        return LadderPoly.word((sym,))

    # -- queries -----------------------------------------------------------
    @property
    def terms(self) -> dict[Word, ExactScalar]:
        return dict(self._terms)

    def degree(self) -> int:
        return max((len(w) for w in self._terms), default=0)

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
        return LadderPoly({w: -c for w, c in self._terms.items()})

    def __mul__(self, other: "LadderPoly | ScalarLike") -> "LadderPoly":
        if not isinstance(other, LadderPoly):
            scalar = ExactScalar.of(other)
            return LadderPoly({w: c * scalar for w, c in self._terms.items()})
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
        return LadderPoly(out)

    def normal_order(self) -> "LadderPoly":
        """Canonical form: creators left of annihilators, mode 1 left of mode 2.

        Each coefficient is scaled once by each integer multiplicity of its
        word's normal form (`_word_normal_form`).
        """
        out: dict[Word, ExactScalar] = {}
        for word, coeff in self._terms.items():
            for canonical, k in _word_normal_form(word):
                _accumulate(out, canonical, coeff._scaled(k))
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
            total = total + coeff._scaled(dict(_word_normal_form(word)).get((), 0))
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
    return {bra: _normalized(amp, *bra, ket_norm) for bra, amp in amplitudes.items()}


def _normalized(amp: ExactScalar, m1: int, m2: int, ket_norm: int) -> ExactScalar:
    """A monomial amplitude on b1+^m1 b2+^m2 |vac> times sqrt(m1! m2! / ket_norm)."""
    ratio = Fraction(math.factorial(m1) * math.factorial(m2), ket_norm)
    # sqrt(p/q) = sqrt(p*q)/q
    s, d = _square_split(ratio.numerator * ratio.denominator)
    norm = Fraction(s, ratio.denominator)
    return amp * norm if d == 1 else amp * ExactScalar(norm, 0, d)


def basis_matrix_element(m1: int, m2: int, op: LadderPoly, n1: int, n2: int) -> ExactScalar:
    """<<m1, m2| op |n1, n2>>: the element of basis_column(op, n1, n2) at (m1, m2), with only
    that amplitude normalized."""
    if min(m1, m2, n1, n2) < 0:
        raise DomainError("occupation numbers must be >= 0")
    amp = apply_to_monomial_ket(op, n1, n2).get((m1, m2))
    if amp is None:
        return ExactScalar.zero()
    return _normalized(amp, m1, m2, math.factorial(n1) * math.factorial(n2))


def _symbol_matrices(ladder) -> dict[int, Operator]:
    return {B1_CRE: ladder.a1_dag, B2_CRE: ladder.a2_dag, B1_ANN: ladder.a1, B2_ANN: ladder.a2}


def to_matrix(poly: LadderPoly, ladder) -> Operator:
    """Evaluate the poly on truncated matrices as one whole matrix."""
    symbol_map = _symbol_matrices(ladder)
    dim = ladder.space.dim
    total = Operator(dim, {})
    for word, coeff in poly._terms.items():
        if word:
            acc = symbol_map[word[0]]
            for sym in word[1:]:
                acc = acc @ symbol_map[sym]
        else:
            acc = identity(dim)
        total = total + coeff.to_complex() * acc
    return total


def matrix_elements(elements: list[tuple[LadderPoly, tuple[int, int], tuple[int, int]]],
                    ladder) -> list[complex]:
    """[<bra| poly |ket> for poly, bra, ket in elements] on the truncated matrices; the float route.

    bra and ket are occupation pairs.  Every word of every poly is one column
    of a (dim, words) block that starts as the basis vector of its poly's
    ket.  The ladder matrices act right to left: for each position from the
    right and each symbol, one operator-block product advances the columns
    whose word has that symbol there.  A column takes every product of its
    word, even on a vector that an annihilator has zeroed, so a non-finite
    ladder entry still shows.  No product matrix is formed.  Each poly sums
    its words' components on its own bra in its term order.
    """
    symbol_map = _symbol_matrices(ladder)
    words = [word for poly, _, _ in elements for word in poly._terms]
    index, counts = ladder.space.index, [len(poly._terms) for poly, _, _ in elements]
    bras = np.repeat(np.array([index(*bra) for _, bra, _ in elements], dtype=np.intp), counts)
    kets = np.repeat(np.array([index(*ket) for _, _, ket in elements], dtype=np.intp), counts)
    columns = np.arange(len(words))
    # column-major, so that gathering the columns of one step copies whole columns
    block = np.zeros((ladder.space.dim, len(words)), dtype=complex, order="F")
    block[kets, columns] = 1.0
    steps: dict[tuple[int, int], list[int]] = {}  # (position from the right, symbol) -> columns
    for col, word in enumerate(words):
        for step in enumerate(reversed(word)):
            steps.setdefault(step, []).append(col)
    for (_, sym), cols in sorted(steps.items()):
        cols = np.array(cols, dtype=np.intp)
        block[:, cols] = symbol_map[sym] @ block[:, cols]
    read = iter(block[bras, columns])
    out = []
    for poly, _, _ in elements:
        total = 0.0 + 0.0j
        for coeff in poly._terms.values():
            total += coeff.to_complex() * next(read)
        out.append(total)
    return out


#: Fraction(n, d) at index 9 * (n + 9) + d - 1, for n in -9..9 and d in 1..9
_DRAWN_FRACTIONS = tuple(Fraction(n, d) for n in range(-9, 10) for d in range(1, 10))


def _randint(bits, low: int, high: int) -> int:
    """rng.randint(low, high) drawn from bits = rng.getrandbits, by CPython's rejection rule
    (Random._randbelow_with_getrandbits): k = n.bit_length() bits, redrawn while r >= n."""
    n = high - low + 1
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return low + r


def random_poly(rng, max_degree: int = 6, max_terms: int = 5) -> LadderPoly:
    """Random exact polynomial for the oracle-vs-matrix validation suite.

    The draws are rng.randint's, in the same order: the number of terms, then
    per term the word's length, its symbols and the coefficient's numerators
    and denominators.
    """
    bits = rng.getrandbits
    terms: dict[Word, ExactScalar] = {}
    for _ in range(_randint(bits, 1, max_terms)):
        word = tuple(_randint(bits, 0, 3) for _ in range(_randint(bits, 0, max_degree)))
        re, im = (_DRAWN_FRACTIONS[9 * (_randint(bits, -9, 9) + 9) + _randint(bits, 1, 9) - 1]
                  for _ in range(2))
        _accumulate(terms, word, ExactScalar._checked(re, im, 1))
    return LadderPoly._checked(terms)
