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
from typing import Optional, Sequence, Tuple

import numpy as np

from .chiral import ChiralRegularizers, dalembert
from .errors import InvalidKey, NotInDomain
from .funcspace import TestFunction, chiral_norm_sq
from .symplectic import Space, SymVector
from .weyl import WeylElement, weyl_mul, weyl_star


@dataclass(frozen=True)
class StateSpec:
    kind: str
    T: Optional[SymVector] = None
    regs: Optional[ChiralRegularizers] = None
    regular_substitute: bool = False


def fock_a() -> StateSpec:
    return StateSpec("fock_a")


def nonregular_elementary() -> StateSpec:
    return StateSpec("nonregular_elementary")


def field_f(T: SymVector) -> StateSpec:
    return StateSpec("field_f", T=T)


def product_p(T: SymVector, regular_substitute: bool = False) -> StateSpec:
    return StateSpec("product_p", T=T, regular_substitute=regular_substitute)


def chiral_vacuum(regs: ChiralRegularizers) -> StateSpec:
    if regs.c_plus == 0 or regs.c_minus == 0:
        raise NotInDomain("chiral regularizers need nonzero charges")
    return StateSpec("chiral_vacuum", regs=regs)


def _eval_key(space: Space, spec: StateSpec, v: SymVector) -> complex:
    ch = space.charges(v)
    if spec.kind == "fock_a":
        if not space.in_space(v, "Va"):
            raise NotInDomain("fock_a is defined on fully decaying data only")
        return complex(space.fock_factor(v))
    if spec.kind == "nonregular_elementary":
        if not space.slot1_is_constant(v):
            raise InvalidKey("key is not an elementary charge-plane vector")
        return (1 + 0j) if ch.c == 0 else 0j
    if spec.kind == "field_f":
        if ch.c != 0 or ch.q != 0:
            return 0j
        tangent = space.psi_T(v, spec.T).tangent
        return complex(space.fock_factor(tangent))
    if spec.kind == "product_p":
        tch = space.charges(spec.T)
        a = ch.c / tch.c
        b = ch.q / tch.q
        l_vec = space.slot_part(spec.T, 0).scale(a) + space.slot_part(
            spec.T, 1
        ).scale(b)
        h_vec = v - l_vec
        # canonical staging W(v) = e^{i sigma(h,l)/2} W(h) W(l)
        phase = complex(np.exp(0.5j * space.sigma(h_vec, l_vec)))
        h_center, _ = space.split_off_center(h_vec)
        omega_h = space.fock_factor(h_center)
        if spec.regular_substitute:
            omega_l = math.exp(-(float(a) ** 2 + float(b) ** 2) / 4.0)
        else:
            omega_l = 1.0 if (a == 0 and b == 0) else 0.0
        return phase * omega_h * omega_l
    if spec.kind == "chiral_vacuum":
        pair = dalembert(space, v)
        if pair.c_plus != 0 or pair.c_minus != 0:
            return 0j
        half = float(ch.inf) / 2.0
        total = 0.0
        for theta in (pair.theta_plus, pair.theta_minus):
            flat = TestFunction(
                theta.grid,
                theta.samples - half,
                Fraction(0),
                Fraction(0),
                None,
            )
            total += chiral_norm_sq(flat)
        return complex(math.exp(-0.5 * total))
    raise ValueError(f"unknown state kind {spec.kind!r}")


def eval_state(space: Space, spec: StateSpec, A: WeylElement) -> complex:
    return sum((coeff * _eval_key(space, spec, v) for v, coeff in A.terms()), 0j)


def gram_psd(
    space: Space, spec: StateSpec, words: Sequence[WeylElement]
) -> Tuple[np.ndarray, float]:
    n = len(words)
    M = np.zeros((n, n), dtype=complex)
    stars = [weyl_star(w) for w in words]
    for i in range(n):
        for j in range(n):
            M[i, j] = eval_state(space, spec, weyl_mul(space, stars[i], words[j]))
    eigs = np.linalg.eigvalsh((M + M.conj().T) / 2.0)
    return M, float(eigs[0])


def hermiticity_defect(
    space: Space, spec: StateSpec, words: Sequence[WeylElement]
) -> float:
    worst = 0.0
    for A in words:
        lhs = eval_state(space, spec, A)
        rhs = eval_state(space, spec, weyl_star(A)).conjugate()
        worst = max(worst, abs(lhs - rhs))
    return worst


def state_coincidence_check(
    space: Space, T: SymVector, words: Sequence[WeylElement]
) -> dict:
    """Dual-path evaluation: direct charge-delta state vs ordered product."""
    direct = field_f(T)
    product = product_p(T)
    worst = 0.0
    for A in words:
        worst = max(
            worst,
            abs(eval_state(space, direct, A) - eval_state(space, product, A)),
        )
    return {"max_discrepancy": worst, "passed": worst < 1e-10}


def regular_substitute_probe(space: Space, T: SymVector) -> float:
    """Largest Hermiticity violation of the product functional with the
    delta factor replaced by a Gaussian, over staging-sensitive probe words.

    The probe words are ordered products W(l) W(h) with sigma(h, l) != 0:
    the staging phase then survives the regular weight.
    """
    from .weyl import weyl_word

    spec = product_p(T, regular_substitute=True)
    l_vec = space.slot_part(T, 0)
    words = []
    for name in space.generator_names():
        h = space.slot_part(space.generator(name), 1) - space.unit_vector().scale(
            space.charges(space.generator(name)).inf
        )
        if h.is_zero() or space.charges(h).q != 0:
            continue
        words.append(weyl_mul(space, weyl_word(l_vec), weyl_word(h)))
    return hermiticity_defect(space, spec, words)
