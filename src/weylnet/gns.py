"""Non-regular GNS representation of the elementary charge-plane algebra.

Vectors live in l2 over the discrete reals: finitely many charge amplitudes,
with the basis convention |c> = |c, 0> and the folding |c, n> = e^{i c n / 2}
|c, 0>.  Distinct charges are exactly orthogonal, which is what breaks weak
continuity in the charge direction.

The represented action of W(c, n) on |c'> composes the Weyl twist with the
folding back to n = 0 representatives; the composite phase is e^{i n (c/2 +
c')}, validated in the tests against the literal two-step computation.

sector_trace is the unique tracial state of the nondegenerate plane algebra:
the coefficient of the zero key (both coordinates zero); of a product AB it
builds only the pairs whose charges cancel.  The GNS-defining
delta state itself (charge zero, any central component) lives in `states` and
is not tracial.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .errors import InvalidKey
from .symplectic import Charges, Space, SymVector
from .weyl import WeylElement, graded_mul, grades


class GnsVector:
    """Finite complex combination of charge basis vectors |c>."""

    __slots__ = ("_amps",)

    def __init__(self, amps: Iterable[Tuple[Fraction, complex]]):
        acc: Dict[Fraction, complex] = {}
        for c, a in amps:
            c = Fraction(c)
            acc[c] = acc.get(c, 0j) + complex(a)
        object.__setattr__(
            self,
            "_amps",
            tuple(sorted((c, a) for c, a in acc.items() if a != 0)),
        )

    def amps(self) -> Tuple[Tuple[Fraction, complex], ...]:
        return self._amps

    def norm(self) -> float:
        return sum(abs(a) ** 2 for _, a in self._amps) ** 0.5

    def __add__(self, other: "GnsVector") -> "GnsVector":
        return GnsVector(self._amps + other._amps)

    def __sub__(self, other: "GnsVector") -> "GnsVector":
        return self + other.scale(-1)

    def scale(self, z: complex) -> "GnsVector":
        return GnsVector((c, z * a) for c, a in self._amps)


def basis(c) -> GnsVector:
    return GnsVector([(Fraction(c), 1.0)])


VACUUM = basis(0)


def sector_inner(u: GnsVector, v: GnsVector) -> complex:
    amps = dict(u.amps())
    return sum(amps[c].conjugate() * a for c, a in v.amps() if c in amps)


def apply_elementary(c, n, v: GnsVector) -> GnsVector:
    """pi(W(c, n)) on stored |c', 0> representatives.

    Composite phase: Weyl twist e^{i c' n / 2} times refolding e^{i (c + c')
    n / 2}, i.e. e^{i n (c/2 + c')}.
    """
    c = Fraction(c)
    n = float(n)
    return GnsVector(
        (c + cp, a * cmath.exp(1j * n * (float(c) / 2.0 + float(cp))))
        for cp, a in v.amps()
    )


def _plane_key(space: Space, v: SymVector) -> Charges:
    """v's charges; InvalidKey unless v is an elementary charge-plane vector."""
    if not space.slot1_is_constant(v):
        raise InvalidKey("key is not an elementary charge-plane vector")
    return space.charges(v)


def sector_trace(space: Space, A: WeylElement, B: Optional[WeylElement] = None) -> complex:
    """The coefficient of the zero key of A, or of AB, read from integer
    charges.  For AB it builds only the pairs whose charges cancel
    (`weyl.graded_mul`), bit for bit tr(weyl_mul(space, A, B)).  InvalidKey
    unless every key is a plane vector."""
    if B is None:
        return sum((coeff for key, coeff in A.terms() if not any(_plane_key(space, key)[1:])), 0j)
    AB = graded_mul(space, A, B, grades(space, A, _plane_key), grades(space, B, _plane_key, -1))
    return sum((coeff for _, coeff in AB.terms()), 0j)


def phi_n_apply(v: GnsVector) -> GnsVector:
    """The central generator: Phi_N |c> = c |c>."""
    return GnsVector((c, float(c) * a) for c, a in v.amps())


def norm_distance(l1: Tuple[Fraction, float], l2: Tuple[Fraction, float],
                  probes: Sequence[Fraction]) -> float:
    """Operator norm of pi(W(l1)) - pi(W(l2)) compressed to the span of the
    probe charge basis vectors."""
    images = [apply_elementary(*l1, basis(d)) - apply_elementary(*l2, basis(d)) for d in probes]
    support = sorted({c for img in images for c, _ in img.amps()})
    index = {c: i for i, c in enumerate(support)}
    M = np.zeros((len(support), len(probes)), dtype=complex)
    for j, img in enumerate(images):
        for c, a in img.amps():
            M[index[c], j] = a
    return float(np.linalg.norm(M, 2)) if M.size else 0.0


def non_regularity_witness(c: Fraction, lambdas: Sequence[Fraction]) -> dict:
    """<0| pi(W(lambda c, 0)) |0> as a function of lambda: the indicator of
    lambda c = 0, with no continuity at 0."""
    return {Fraction(lam): sector_inner(VACUUM, apply_elementary(
        Fraction(lam) * Fraction(c), 0.0, VACUUM)) for lam in lambdas}
