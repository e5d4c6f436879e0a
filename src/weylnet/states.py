"""States on the Weyl algebra and their positivity/factorization checks.

Five state kinds:
  fock_a                 quasi-free vacuum on fully decaying data
  nonregular_elementary  tracial delta state on the elementary charge algebra
  field_f                Fock factor on the regularized part times exact
                         Kronecker deltas on both charges
  product_p              the same functional built through the ordered
                         two-stage presentation W(h) W(l); each key carries
                         the staging phase e^{i sigma(h,l)/2}
  chiral_vacuum          deltas on the chiral charges, chiral Fock factor on
                         the recentred movers

product_p optionally swaps the delta factor for a regular Gaussian weight:
that substitute functional fails Hermiticity through the staging phase, which
is exactly why the non-regular delta is forced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .chiral import dalembert
from .funcspace import TestFunction, chiral_norm_sq
from .gns import _plane_coordinates
from .symplectic import Space, SymVector
from .weyl import WeylElement, weyl_mul, weyl_star, weyl_word


@dataclass(frozen=True)
class State:
    """A state kind: the value on one key W(v) (raising off the domain), and the domain."""

    key: Callable[[Space, SymVector], complex]
    domain: Callable[[Space, SymVector], bool] = lambda space, v: True


def _fock_a_key(space: Space, v: SymVector) -> complex:
    # Space.fock_norm_sq raises NotInDomain off Va
    return complex(space.fock_factor(v))


def fock_a() -> State:
    return State(_fock_a_key, lambda space, v: space.in_space(v, "Va"))


def _elementary_key(space: Space, v: SymVector) -> complex:
    c, _ = _plane_coordinates(space, v)
    return (1 + 0j) if c == 0 else 0j


def nonregular_elementary() -> State:
    return State(_elementary_key, Space.slot1_is_constant)


def field_f(T: SymVector) -> State:
    def key(space: Space, v: SymVector) -> complex:
        ch = space.charges(v)
        if ch.c != 0 or ch.q != 0:
            return 0j
        return complex(space.fock_factor(space.tangent(v, T)))

    return State(key)


def product_p(T: SymVector, regular_substitute: bool = False) -> State:
    def key(space: Space, v: SymVector) -> complex:
        ch = space.charges(v)
        if not regular_substitute and (ch.c != 0 or ch.q != 0):
            return 0j  # the exact delta factor; no quadrature needed
        a, b, l_vec = space.charge_part(ch, T)
        h_vec = v - l_vec
        # canonical staging W(v) = e^{i sigma(h,l)/2} W(h) W(l)
        phase = complex(np.exp(0.5j * space.sigma(h_vec, l_vec)))
        h_center, _ = space.split_off_center(h_vec)
        omega_h = space.fock_factor(h_center)
        if regular_substitute:
            return phase * omega_h * math.exp(-(float(a) ** 2 + float(b) ** 2) / 4.0)
        return phase * omega_h

    return State(key)


def _chiral_vacuum_key(space: Space, v: SymVector) -> complex:
    # c_pm = (q +/- c)/2 both vanish exactly when c and q do
    ch = space.charges(v)
    if ch.c != 0 or ch.q != 0:
        return 0j
    pair = dalembert(space, v)
    half = float(ch.inf) / 2.0
    total = 0.0
    for theta in (pair.theta_plus, pair.theta_minus):
        flat = TestFunction(theta.grid, theta.samples - half, Fraction(0), Fraction(0))
        total += chiral_norm_sq(flat)
    return complex(math.exp(-0.5 * total))


def chiral_vacuum() -> State:
    return State(_chiral_vacuum_key)


# CLI name -> the state built from a loaded Space; T is the registry's
# canonical regularizer.
STATES: Dict[str, Callable[[Space], State]] = {
    "fock_a": lambda space: fock_a(),
    "nonregular_elementary": lambda space: nonregular_elementary(),
    "field_f": lambda space: field_f(space.generator("T")),
    "product_p": lambda space: product_p(space.generator("T")),
    "chiral_vacuum": lambda space: chiral_vacuum(),
}


def eval_state(space: Space, state: State, A: WeylElement) -> complex:
    return sum((coeff * state.key(space, v) for v, coeff in A.terms()), 0j)


def gram_psd(
    space: Space, state: State, words: Sequence[WeylElement]
) -> Tuple[np.ndarray, float]:
    n = len(words)
    M = np.zeros((n, n), dtype=complex)
    stars = [weyl_star(w) for w in words]
    for i in range(n):
        for j in range(n):
            M[i, j] = eval_state(space, state, weyl_mul(space, stars[i], words[j]))
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    return M, float(eigs[0])


def hermiticity_defect(
    space: Space, state: State, words: Sequence[WeylElement]
) -> float:
    worst = 0.0
    for A in words:
        lhs = eval_state(space, state, A)
        rhs = eval_state(space, state, weyl_star(A)).conjugate()
        worst = max(worst, abs(lhs - rhs))
    return worst


def state_coincidence_check(
    space: Space, T: SymVector, words: Sequence[WeylElement]
) -> float:
    """Dual-path evaluation: the largest discrepancy between the direct
    charge-delta state and the ordered product over `words`."""
    direct = field_f(T)
    product = product_p(T)
    worst = 0.0
    for A in words:
        worst = max(
            worst,
            abs(eval_state(space, direct, A) - eval_state(space, product, A)),
        )
    return worst


def regular_substitute_probe(space: Space, T: SymVector) -> float:
    """Largest Hermiticity violation of the product functional with the
    delta factor replaced by a Gaussian, over staging-sensitive probe words.

    The probe words are ordered products W(l) W(h) with sigma(h, l) != 0:
    the staging phase then survives the regular weight.
    """
    state = product_p(T, regular_substitute=True)
    l_vec = space.slot_part(T, 0)
    words = []
    for name in space.generator_names():
        h, _ = space.split_off_center(space.slot_part(space.generator(name), 1))
        if h.is_zero() or space.charges(h).q != 0:
            continue
        words.append(weyl_mul(space, weyl_word(l_vec), weyl_word(h)))
    return hermiticity_defect(space, state, words)
