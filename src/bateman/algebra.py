"""Exact two-mode ladder algebra over complex rationals.

Symbols b1, b2, b1+, b2+ obey [b_i, b_j+] = delta_ij with all other pairs
commuting.  Scalars are exact: complex rationals attached to unit tags
{1, hbar*omega, i*hbar*lambda}, optionally times the square root of a
squarefree integer (needed for the pi/4 rotation coefficients).  Nothing in
this module touches floating point except the explicit to_complex, to_matrix
and matrix_elements evaluators, which exist to cross-validate against the
truncated matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, MixedUnitError, RadicalMismatch
from .fock import Operator, identity
from .params import PhysicalParams

__all__ = [
    "CQ",
    "ExactScalar",
    "LadderPoly",
    "U_ONE",
    "U_HW",
    "U_IHL",
    "B1_CRE",
    "B2_CRE",
    "B1_ANN",
    "B2_ANN",
    "normal_order",
    "vacuum_pairing",
    "apply_to_monomial_ket",
    "basis_column",
    "basis_matrix_element",
    "to_matrix",
    "matrix_element",
    "matrix_elements",
    "matrix_vacuum_pairing",
    "random_poly",
]

# unit tags; products of two non-trivial tags are out of scope and rejected
U_ONE = "1"
U_HW = "hw"      # hbar*omega
U_IHL = "ihl"    # i*hbar*lambda

# symbol codes; the numeric order is the canonical word order
# (creators before annihilators, mode 1 before mode 2)
B1_CRE, B2_CRE, B1_ANN, B2_ANN = 0, 1, 2, 3

_SYMBOL_NAMES = {B1_CRE: "b1+", B2_CRE: "b2+", B1_ANN: "b1", B2_ANN: "b2"}
_CONJ_MAP = {B1_CRE: B1_ANN, B2_CRE: B2_ANN, B1_ANN: B1_CRE, B2_ANN: B2_CRE}


@dataclass(frozen=True)
class CQ:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @staticmethod
    def of(value: "CQ | Fraction | int") -> "CQ":
        if isinstance(value, CQ):
            return value
        return CQ(Fraction(value))

    def __add__(self, other: "CQ") -> "CQ":
        return CQ(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CQ") -> "CQ":
        return CQ(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CQ":
        return CQ(-self.re, -self.im)

    def __mul__(self, other: "CQ | Fraction | int") -> "CQ":
        if isinstance(other, (int, Fraction)):
            return CQ(self.re * other, self.im * other)
        other = CQ.of(other)
        return CQ(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "CQ":
        return CQ(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}j)"


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
    """(c_1 + c_hw*hbar*omega + c_ihl*i*hbar*lambda) * sqrt(root).

    root is a squarefree positive integer; 1 in almost every in-scope value.
    Sums of scalars with different roots are rejected rather than widened.
    No stored coefficient is zero.
    """

    __slots__ = ("_coeffs", "root")

    def __init__(self, coeffs: Mapping[str, CQ] | None = None, root: int = 1):
        for u, c in (coeffs or {}).items():
            if u not in (U_ONE, U_HW, U_IHL) and not c.is_zero():
                raise DomainError(f"unknown unit tag {u!r}")
        if root < 1:
            raise DomainError(f"root must be positive, got {root}")
        self._set(coeffs or {}, root)

    def _set(self, coeffs: Mapping[str, CQ], root: int) -> "ExactScalar":
        self._coeffs: dict[str, CQ] = {u: c for u, c in coeffs.items() if not c.is_zero()}
        self.root = root if self._coeffs else 1
        return self

    @staticmethod
    def _checked(coeffs: Mapping[str, CQ], root: int) -> "ExactScalar":
        """A result of arithmetic on scalars: its tags and root are valid, so only zeros drop."""
        return object.__new__(ExactScalar)._set(coeffs, root)

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero() -> "ExactScalar":
        return ExactScalar()

    @staticmethod
    def of(value: "ExactScalar | CQ | Fraction | int") -> "ExactScalar":
        if isinstance(value, ExactScalar):
            return value
        return ExactScalar({U_ONE: CQ.of(value)})

    @staticmethod
    def unit(tag: str, coeff: "CQ | Fraction | int" = 1) -> "ExactScalar":
        return ExactScalar({tag: CQ.of(coeff)})

    @staticmethod
    def surd(coeff: "CQ | Fraction | int", root: int) -> "ExactScalar":
        s, d = _square_split(root)
        return ExactScalar({U_ONE: CQ.of(coeff) * Fraction(s)}, d)

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, tag: str) -> CQ:
        return self._coeffs.get(tag, CQ())

    def key(self) -> tuple:
        return (tuple(sorted(self._coeffs.items())), self.root)

    def _rational(self) -> Fraction | None:
        """The value when it is a real rational (root 1, unit tag 1 alone), else None."""
        if self.root == 1 and len(self._coeffs) == 1:
            c = self._coeffs.get(U_ONE)
            if c is not None and c.im == 0:
                return c.re
        return None

    def as_integer_pair(self) -> tuple[int, int]:
        """Interpret as p*hw + q*ihl with integer p, q; raises otherwise."""
        if self.root != 1 or not self.coeff(U_ONE).is_zero():
            raise DomainError(f"not an integer unit pair: {self!r}")
        pair = []
        for tag in (U_HW, U_IHL):
            c = self.coeff(tag)
            if c.im != 0 or c.re.denominator != 1:
                raise DomainError(f"not an integer unit pair: {self!r}")
            pair.append(int(c.re))
        return pair[0], pair[1]

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        other = ExactScalar.of(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.root != other.root:
            raise RadicalMismatch(f"cannot add sqrt({self.root}) and sqrt({other.root}) terms")
        merged = dict(self._coeffs)
        for u, c in other._coeffs.items():
            merged[u] = merged[u] + c if u in merged else c
        return ExactScalar._checked(merged, self.root)

    def __neg__(self) -> "ExactScalar":
        return ExactScalar._checked({u: -c for u, c in self._coeffs.items()}, self.root)

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-ExactScalar.of(other))

    def _scaled(self, k: int | Fraction) -> "ExactScalar":
        """self times the real rational k: each coefficient scaled, the tags and root kept."""
        if k == 1:
            return self
        if not k:
            return ExactScalar.zero()
        return ExactScalar._checked({u: c * k for u, c in self._coeffs.items()}, self.root)

    def __mul__(self, other: "ExactScalar | CQ | Fraction | int") -> "ExactScalar":
        if isinstance(other, LadderPoly):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            # a real rational factor, such as a walk weight
            return self._scaled(other)
        other = ExactScalar.of(other)
        # a real rational scalar on either side, such as LadderPoly.one()'s
        # coefficient, scales the other: the same value as the general product
        k = other._rational()
        if k is not None:
            return self._scaled(k)
        k = self._rational()
        if k is not None:
            return other._scaled(k)
        if self.is_zero() or other.is_zero():
            return ExactScalar.zero()
        s, d = (1, 1) if self.root == other.root == 1 else _square_split(self.root * other.root)
        out: dict[str, CQ] = {}
        for u1, c1 in self._coeffs.items():
            for u2, c2 in other._coeffs.items():
                if u1 != U_ONE and u2 != U_ONE:
                    raise MixedUnitError(f"product of unit tags {u1!r} and {u2!r}")
                tag = u2 if u1 == U_ONE else u1
                term = c1 * c2 if s == 1 else c1 * c2 * s
                out[tag] = out[tag] + term if tag in out else term
        return ExactScalar._checked(out, d)

    __rmul__ = __mul__

    def conjugated(self) -> "ExactScalar":
        """i -> -i together with gamma -> -gamma; both unit tags are invariant."""
        return ExactScalar._checked({u: c.conjugate() for u, c in self._coeffs.items()},
                                    self.root)

    def to_complex(self, params: PhysicalParams | None = None) -> complex:
        if len(self._coeffs) == 1 and U_ONE in self._coeffs:
            # the general expression below with both unit-tag terms skipped
            return self._coeffs[U_ONE].to_complex() * math.sqrt(self.root)
        total = self.coeff(U_ONE).to_complex()
        for tag in (U_HW, U_IHL):
            c = self.coeff(tag)
            if c.is_zero():
                continue
            if params is None:
                raise DomainError(f"unit tag {tag!r} needs params for numeric evaluation")
            factor = (
                params.hbar * params.omega
                if tag == U_HW
                else 1j * params.hbar * params.lam
            )
            total += c.to_complex() * factor
        return total * math.sqrt(self.root)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = [f"{c!r}*{u}" for u, c in sorted(self._coeffs.items())]
        body = " + ".join(parts)
        return body if self.root == 1 else f"({body})*sqrt({self.root})"


ScalarLike = "ExactScalar | CQ | Fraction | int"
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

    def constant_term(self) -> ExactScalar:
        return self._terms.get((), ExactScalar.zero())

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

        Fixed-point rewriting with per-generation merging, which keeps the
        intermediate term count polynomial for number-operator sandwiches.
        """
        done: dict[Word, ExactScalar] = {}
        pending = dict(self._terms)
        while pending:
            nxt: dict[Word, ExactScalar] = {}
            for word, coeff in pending.items():
                idx = -1
                for i in range(len(word) - 1):
                    if word[i] > word[i + 1]:
                        idx = i
                        break
                if idx < 0:
                    _accumulate(done, word, coeff)
                    continue
                a, b = word[idx], word[idx + 1]
                _accumulate(nxt, word[:idx] + (b, a) + word[idx + 2 :], coeff)
                if (a, b) in ((B1_ANN, B1_CRE), (B2_ANN, B2_CRE)):
                    _accumulate(nxt, word[:idx] + word[idx + 2 :], coeff)
            pending = nxt
        return LadderPoly._checked(done)

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


def normal_order(poly: LadderPoly) -> LadderPoly:
    return poly.normal_order()


def vacuum_pairing(bra: LadderPoly, ket: LadderPoly) -> ExactScalar:
    """<vac| bra * ket |vac>: the constant term of the normal-ordered product."""
    return (bra * ket).normal_order().constant_term()


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
    column: dict[tuple[int, int], ExactScalar] = {}
    for (m1, m2), amp in amplitudes.items():
        ratio = Fraction(math.factorial(m1) * math.factorial(m2), ket_norm)
        # sqrt(p/q) = sqrt(p*q)/q
        s, d = _square_split(ratio.numerator * ratio.denominator)
        norm = Fraction(s, ratio.denominator)
        column[(m1, m2)] = amp * norm if d == 1 else amp * ExactScalar.surd(norm, d)
    return column


def basis_matrix_element(m1: int, m2: int, op: LadderPoly, n1: int, n2: int) -> ExactScalar:
    """<<m1, m2| op |n1, n2>>: one lookup in basis_column(op, n1, n2)."""
    if min(m1, m2, n1, n2) < 0:
        raise DomainError("occupation numbers must be >= 0")
    return basis_column(op, n1, n2).get((m1, m2), ExactScalar.zero())


def _symbol_matrices(ladder) -> dict[int, Operator]:
    return {B1_CRE: ladder.a1_dag, B2_CRE: ladder.a2_dag, B1_ANN: ladder.a1, B2_ANN: ladder.a2}


def to_matrix(poly: LadderPoly, ladder, params: PhysicalParams | None = None) -> Operator:
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
        total = total + coeff.to_complex(params) * acc
    return total


def matrix_elements(polys: list[LadderPoly], ladder, bra: tuple[int, int],
                    ket: tuple[int, int], params: PhysicalParams | None = None) -> list[complex]:
    """[<bra| poly |ket> for poly in polys] on the truncated matrices; the float route.

    bra and ket are occupation pairs.  Every word of every poly is one column
    of a (dim, words) block that starts as the basis vector of ket.  The
    ladder matrices act right to left: for each position from the right and
    each symbol, one operator-block product advances the columns whose word
    has that symbol there.  A column takes every product of its word, even
    on a vector that an annihilator has zeroed, so a non-finite ladder entry
    still shows.  No product matrix is formed.  Each poly sums its words'
    bra components in its term order.
    """
    symbol_map = _symbol_matrices(ladder)
    words = [word for poly in polys for word in poly._terms]
    # column-major, so that gathering the columns of one step copies whole columns
    block = np.zeros((ladder.space.dim, len(words)), dtype=complex, order="F")
    block[ladder.space.index(*ket)] = 1.0
    row = ladder.space.index(*bra)
    steps: dict[tuple[int, int], list[int]] = {}  # (position from the right, symbol) -> columns
    for col, word in enumerate(words):
        for step in enumerate(reversed(word)):
            steps.setdefault(step, []).append(col)
    for (_, sym), cols in sorted(steps.items()):
        block[:, cols] = symbol_map[sym] @ block[:, cols]
    read = iter(block[row])
    out = []
    for poly in polys:
        total = 0.0 + 0.0j
        for coeff in poly._terms.values():
            total += coeff.to_complex(params) * next(read)
        out.append(total)
    return out


def matrix_element(poly: LadderPoly, ladder, bra: tuple[int, int], ket: tuple[int, int],
                   params: PhysicalParams | None = None) -> complex:
    """<bra| poly |ket> on the truncated matrices: matrix_elements of the one poly."""
    return matrix_elements([poly], ladder, bra, ket, params)[0]


def matrix_vacuum_pairing(poly: LadderPoly, ladder, params: PhysicalParams | None = None) -> complex:
    """<vac| poly |vac> on the truncated matrices: the (0, 0), (0, 0) matrix_element."""
    return matrix_element(poly, ladder, (0, 0), (0, 0), params)


def random_poly(rng, max_degree: int = 6, max_terms: int = 5) -> LadderPoly:
    """Random exact polynomial for the oracle-vs-matrix validation suite."""
    terms: dict[Word, ExactScalar] = {}
    for _ in range(rng.randint(1, max_terms)):
        length = rng.randint(0, max_degree)
        word = tuple(rng.randint(0, 3) for _ in range(length))
        coeff = CQ(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )
        _accumulate(terms, word, ExactScalar.of(coeff))
    return LadderPoly._checked(terms)
