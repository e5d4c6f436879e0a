"""States on the Weyl algebra and their positivity/factorization checks.

Five state kinds:
  fock_a                 quasi-free vacuum on fully decaying data
  nonregular_elementary  tracial delta state on the elementary charge algebra
  field_f                Fock factor on the regularized part times exact
                         Kronecker deltas on both charges
  product_p              the same functional built through the ordered
                         two-stage presentation W(h) W(l); each key carries
                         the staging phase e^{i sigma(h,l)/2}
  chiral_vacuum          deltas on the chiral charges, the Fock factor on the
                         recentred key read in the mover basis

product_p optionally swaps the delta factor for a regular Gaussian weight:
that substitute functional fails Hermiticity through the staging phase, which
is exactly why the non-regular delta is forced.  The three delta kinds are
marked `State.delta`: `State.value` alone tests their charge delta, so their
keys read only charge-free vectors, and gram_psd builds only those terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .errors import largest
from .gns import _plane_key
from .symplectic import Space, SymVector
from .weyl import WeylElement, graded_mul, grades, weyl_mul, weyl_star, weyl_word


@dataclass(frozen=True)
class State:
    """A state kind: the value on one key W(v) (raising off the domain), and
    the domain.  `delta` marks a state that is exactly 0 unless F_c = F_q = 0;
    its key is then read only on the keys where both vanish."""

    key: Callable[[Space, SymVector], complex]
    domain: Callable[[Space, SymVector], bool] = lambda space, v: True
    delta: bool = False

    def value(self, space: Space, v: SymVector) -> complex:
        """omega(W(v)): the charge delta of a delta state, times its key."""
        if self.delta and any(_delta_grade(space, v)[1:]):
            return 0j
        return self.key(space, v)


def _delta_grade(space: Space, v: SymVector) -> Tuple[int, int, int]:
    """(den, c, plus - minus): F_c and F_q over one denominator."""
    den, c, plus, minus = space.charges(v)
    return den, c, plus - minus


def _fock_a_key(space: Space, v: SymVector) -> complex:
    # Space.fock_norm_sq raises NotInDomain off Va
    return complex(space.fock_factor(v))


def fock_a() -> State:
    return State(_fock_a_key, lambda space, v: space.in_space(v, "Va"))


def _elementary_key(space: Space, v: SymVector) -> complex:
    return 0j if _plane_key(space, v).c else (1 + 0j)


def nonregular_elementary() -> State:
    return State(_elementary_key, Space.slot1_is_constant)


def field_f(T: SymVector) -> State:
    return State(lambda space, v: complex(space.fock_factor(space.tangent(v, T))), delta=True)


def product_p(T: SymVector, regular_substitute: bool = False) -> State:
    def key(space: Space, v: SymVector) -> complex:
        a, b, l_vec = space.charge_part(v, T)
        h_vec = v - l_vec
        # canonical staging W(v) = e^{i sigma(h,l)/2} W(h) W(l)
        phase = complex(np.exp(0.5j * space.sigma(h_vec, l_vec)))
        h_center, _ = space.split_off_center(h_vec)
        omega_h = space.fock_factor(h_center)
        if regular_substitute:
            return phase * omega_h * math.exp(-(float(a) ** 2 + float(b) ** 2) / 4.0)
        return phase * omega_h

    return State(key, delta=not regular_substitute)


def _chiral_vacuum_key(space: Space, v: SymVector) -> complex:
    # on a charge-free key theta_pm less half the mean limit L are
    # (f1 - L +/- A) / 2, so 2||theta_+||^2 + 2||theta_-||^2 is the mover norm
    return complex(math.exp(-0.25 * space.mover_norm_sq(space.split_off_center(v)[0])))


def chiral_vacuum() -> State:
    return State(_chiral_vacuum_key, delta=True)


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
    return sum((coeff * state.value(space, v) for v, coeff in A.terms()), 0j)


def gram_psd(
    space: Space, state: State, words: Sequence[WeylElement]
) -> Tuple[np.ndarray, float]:
    """M[i, j] = omega(w_i* w_j) and M's least eigenvalue.  A delta state
    gets only the terms whose F_c and F_q vanish (`weyl.graded_mul`): the
    rest would add signed zeros to omega's sum, which start at +0.0."""
    n = len(words)
    M = np.zeros((n, n), dtype=complex)
    stars = [weyl_star(w) for w in words]
    if state.delta:
        left = [grades(space, w, _delta_grade) for w in stars]
        right = [grades(space, w, _delta_grade, -1) for w in words]
    for i in range(n):
        for j in range(n):
            AB = (graded_mul(space, stars[i], words[j], left[i], right[j]) if state.delta
                  else weyl_mul(space, stars[i], words[j]))
            M[i, j] = eval_state(space, state, AB)
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    return M, float(eigs[0])


def hermiticity_defect(space: Space, state: State, words: Sequence[WeylElement]) -> float:
    return largest(
        abs(eval_state(space, state, A) - eval_state(space, state, weyl_star(A)).conjugate())
        for A in words
    )


def state_coincidence_check(space: Space, T: SymVector, words: Sequence[WeylElement]) -> float:
    """Dual-path evaluation: the largest discrepancy between the direct
    charge-delta state and the ordered product over `words`."""
    direct, product = field_f(T), product_p(T)
    return largest(abs(eval_state(space, direct, A) - eval_state(space, product, A)) for A in words)


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
        if h.is_zero() or not space.in_space(h, "Vc"):
            continue
        words.append(weyl_mul(space, weyl_word(l_vec), weyl_word(h)))
    return hermiticity_defect(space, state, words)
