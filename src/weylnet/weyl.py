"""The Weyl *-algebra over a symplectic space of registered generators.

Elements are finite complex combinations of formal unitaries W(v) keyed by
exact symplectic vectors.  The product twists by e^{-i sigma(v,v')/2}; keys
stay exact, only the phases are floats.  `graded_mul` builds only a product's
terms of grade zero (zero charges, say), for a functional that reads no others.

Also provides the two-stage (crossed-product) presentation: an element is a
triple (zeta, h, l) standing for zeta * W(h) * W(l), where h is an observable
vector and l = (c, n) lives on the elementary charge plane spanned by the
regularizer's density A, scaled to unit charge, and the central unit e.  The
staged product law is checked against the embedded global product in the
tests.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Tuple

from .errors import DegenerateRegularizer, ElementParseError, clip, largest
from .symplectic import Space, SymVector, ZERO, sigma_plane

COEFF_EPS = 1e-15


class WeylElement:
    """Finite combination sum_k a_k W(v_k), canonically normalized.

    Like keys are summed, coefficients below COEFF_EPS dropped (a NaN is kept),
    and the terms sorted by key in the order of `SymVector.items()`: atom by
    atom, then coefficient by coefficient.  The sort reads the coefficients as
    integer numerators over the keys' common denominator: that order with no
    Fraction built."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[Tuple[SymVector, complex]]):
        acc: Dict[SymVector, complex] = {}
        for v, a in terms:
            acc[v] = acc.get(v, 0j) + complex(a)
        kept = [(v, a) for v, a in acc.items() if not abs(a) < COEFF_EPS]
        if len(kept) > 1:
            den = math.lcm(*[v._den for v, _ in kept])
            kept.sort(key=lambda t: [(a, n * (den // t[0]._den)) for a, n in t[0]._nums])
        object.__setattr__(self, "_terms", tuple(kept))

    def terms(self) -> Tuple[Tuple[SymVector, complex], ...]:
        return self._terms

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self._terms == other._terms

    def __repr__(self):
        if not self._terms:
            return "WeylElement(0)"
        return "WeylElement(" + " + ".join(f"({a:.6g})W[{v}]" for v, a in self._terms) + ")"


def weyl_word(v: SymVector, coeff: complex = 1.0) -> WeylElement:
    """coeff W(v) as `WeylElement([(v, coeff)])` builds it, past the dict."""
    a = 0j + complex(coeff)
    word = object.__new__(WeylElement)
    word._terms = () if abs(a) < COEFF_EPS else ((v, a),)
    return word


IDENTITY = weyl_word(ZERO)


def weyl_add(A: WeylElement, B: WeylElement) -> WeylElement:
    return WeylElement(A.terms() + B.terms())


def weyl_scale(A: WeylElement, z: complex) -> WeylElement:
    if len(A._terms) == 1:
        (v, a), = A._terms
        return weyl_word(v, z * a)
    return WeylElement([(v, z * a) for v, a in A.terms()])


def _twisted(space: Space, v: SymVector, a: complex, w: SymVector, b: complex):
    """a W(v) * b W(w) as (key, coefficient): v + w, a b e^{-i sigma(v, w)/2}."""
    return v + w, a * b * cmath.exp(-0.5j * space.sigma(v, w))


def weyl_mul(space: Space, A: WeylElement, B: WeylElement) -> WeylElement:
    if len(A._terms) == 1 == len(B._terms):
        return weyl_word(*_twisted(space, *A._terms[0], *B._terms[0]))
    return WeylElement([_twisted(space, v, a, w, b) for v, a in A._terms for w, b in B._terms])


def grades(space: Space, A: WeylElement, grade, sign: int = 1) -> list:
    """sign * grade(space, v) in lowest terms per key v of A; a grade is
    integers (den, x, ...) over den > 0, additive in v."""
    out = []
    for v, _ in A._terms:
        den, *xs = grade(space, v)
        g = math.gcd(den, *xs)
        out.append((den // g, *[sign * x // g for x in xs]))
    return out


def graded_mul(space: Space, A: WeylElement, B: WeylElement, ga: list, gb: list) -> WeylElement:
    """The grade-zero terms of weyl_mul(space, A, B), bit for bit: with ga
    the `grades` of A's keys and gb minus B's, it multiplies only the pairs
    whose grades cancel, and WeylElement merges, drops and sorts them."""
    return WeylElement([_twisted(space, v, a, w, b) for (v, a), g in zip(A._terms, ga)
                        for (w, b), h in zip(B._terms, gb) if g == h])


def weyl_star(A: WeylElement) -> WeylElement:
    if len(A._terms) == 1:
        (v, a), = A._terms
        return weyl_word(-v, a.conjugate())
    return WeylElement([(-v, a.conjugate()) for v, a in A.terms()])


def max_coeff_distance(A: WeylElement, B: WeylElement) -> float:
    """Largest coefficient discrepancy between two elements, keywise."""
    if len(A._terms) == 1 == len(B._terms) and A._terms[0][0] == B._terms[0][0]:
        return largest((abs(A._terms[0][1] - B._terms[0][1]),))
    coeffs: Dict[SymVector, complex] = {v: a for v, a in A.terms()}
    defects = [abs(coeffs.pop(v, 0j) - b) for v, b in B.terms()]
    return largest(defects + [abs(a) for a in coeffs.values()])


def cocycle_defect(space: Space, r: SymVector, s: SymVector, t: SymVector) -> float:
    return abs(
        space.sigma(s, t)
        + space.sigma(r, s + t)
        - space.sigma(r, s)
        - space.sigma(r + s, t)
    )


# ---------------------------------------------------------------------------
# staged (crossed-product) presentation


@dataclass(frozen=True)
class Staged:
    zeta: complex
    h: SymVector
    c: Fraction
    n: Fraction


class CrossedProduct:
    """Two-stage presentation relative to a regularizer's charge plane.

    The plane is spanned by A = T_0 / T_c and the central unit e: A has
    exact c-charge 1, so sigma(A, e) = 1 and the plane form is the standard
    one."""

    def __init__(self, space: Space, T: SymVector):
        den, c, plus, minus = space.charges(T)
        if c == 0:
            raise DegenerateRegularizer(f"regularizer charges 0, {Fraction(plus - minus, den)}")
        self.space = space
        self.A = space.slot_part(T, 0).scale(Fraction(den, c))
        self.e = space.unit_vector()

    def plane_vector(self, c: Fraction, n: Fraction) -> SymVector:
        """c A + n e."""
        return self.A.scale(c) + self.e.scale(n)

    def alpha(self, h: SymVector, c: Fraction, n: Fraction) -> float:
        return self.space.sigma(h, self.plane_vector(c, n))

    def product(self, x: Staged, y: Staged) -> Staged:
        # zeta W(h) W(l) * zeta' W(h') W(l'): moving W(l) past W(h') costs
        # e^{+i sigma(h', l)}, then both stages fuse with their own half-phases
        phase = (
            cmath.exp(1j * self.alpha(y.h, x.c, x.n))
            * cmath.exp(-0.5j * self.space.sigma(x.h, y.h))
            * cmath.exp(-0.5j * sigma_plane((x.c, x.n), (y.c, y.n)))
        )
        return Staged(x.zeta * y.zeta * phase, x.h + y.h, x.c + y.c, x.n + y.n)

    def embed(self, x: Staged) -> WeylElement:
        l_vec = self.plane_vector(x.c, x.n)
        phase = cmath.exp(-0.5j * self.space.sigma(x.h, l_vec))
        return weyl_word(x.h + l_vec, x.zeta * phase)


# ---------------------------------------------------------------------------
# element literals:  2.0+0.0i * W[gen1 + 3/2 gen4] - W[0] + 1i * W[q0]
#
# Each pattern is matched exactly where the previous token ended, so every
# character belongs to a token or the literal is refused.

# A summand: its `+`/`-` separator (after every summand but the first), then
# `coeff *`, a sign or nothing, then W[body].
_SUMMAND = re.compile(
    r"(?:(?<=\])\s*(?P<sep>[+-])|(?<!\]))"
    r"\s*(?:(?P<coeff>[^*\[\]]*)\*|(?P<sign>[+-]))?\s*W\[(?P<body>[^\]]*)\]"
)
# A body term: a sign (required after the first term), an optional p or p/q
# followed by whitespace, then a generator name.
_TERM = re.compile(
    r"\s*(?P<sign>[+-]?)\s*(?:(?P<num>\d+(?:/\d+)?)\s+)?(?P<name>[A-Za-z_]\w*)\s*"
)


def _parse_coeff(text: str) -> complex:
    t = text.strip()
    if not t:
        raise ElementParseError("empty coefficient")
    try:
        z = complex(t.replace("i", "j").replace(" ", ""))
    except ValueError:
        raise ElementParseError(f"bad coefficient {clip(t)}") from None
    if not cmath.isfinite(z):
        raise ElementParseError(f"non-finite coefficient {clip(t)}")
    return z


def parse_combo(space: Space, body: str) -> SymVector:
    """The body of `W[...]`: a signed rational combination of generator names, or 0."""
    body = body.strip()
    if not body:
        raise ElementParseError("empty generator combination; write W[0] for the identity")
    if body == "0":
        return ZERO
    v, pos, names = ZERO, 0, []
    while pos < len(body):
        m = _TERM.match(body, pos)
        if not m or (pos and not m["sign"]):
            raise ElementParseError(f"bad generator term near {clip(body[pos:])}")
        try:
            coeff = Fraction(m["num"] or 1)
        except ZeroDivisionError:
            raise ElementParseError(f"zero denominator in {clip(m[0].strip())}") from None
        v = v + space.generator(m["name"]).scale(-coeff if m["sign"] == "-" else coeff)
        names.append(m["name"])
        pos = m.end()
    for a, coeff in v.items():
        try:
            float(coeff)
        except OverflowError:
            by = [g for g in dict.fromkeys(names) if a in dict(space.generator(g).items())]
            raise ElementParseError(f"coefficient of {' + '.join(by)} overflows a float") from None
    return v


def parse_element(space: Space, text: str) -> WeylElement:
    """Parse `coeff * W[combo] +/- ...` into a WeylElement."""
    s = text.strip()
    if not s:
        raise ElementParseError("empty element literal")
    terms, pos = [], 0
    while pos < len(s):
        m = _SUMMAND.match(s, pos)
        if not m:
            expected = "+ or - then [coeff *] W[...]" if pos else "[coeff *] W[...]"
            raise ElementParseError(f"expected {expected} near {clip(s[pos:])}")
        coeff = complex(-1.0 if m["sign"] == "-" else 1.0)
        if m["coeff"] is not None:
            coeff = _parse_coeff(m["coeff"])
        sep = -1.0 if m["sep"] == "-" else 1.0
        terms.append((parse_combo(space, m["body"]), sep * coeff))
        pos = m.end()
    element = WeylElement(terms)
    if not all(cmath.isfinite(a) for _, a in element.terms()):
        raise ElementParseError("coefficient overflows when like terms are summed")
    return element
