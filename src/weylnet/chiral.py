"""Left/right-mover decomposition of Cauchy data and the form at infinity.

theta_pm(x) = (f1(x) +/- integral_{-inf}^x f0) / 2, with the inverse
f0 = d(theta_+ - theta_-), f1 = theta_+ + theta_-.

The antiderivative/derivative used here form an exact discrete inverse pair,
`funcspace.kink_spectral` with power -1 and 1: the declared charge multiple
of a reference compact kink is split off in closed form, and the decaying
zero-mean remainder is integrated or differentiated on one DFT grid.  This
keeps the round trip at machine precision, which a finite-difference
derivative of a cumulative quadrature cannot do (its half-step ripple is
amplified by 1/h).  The antiderivative is linear in the
data, so `dalembert` sums the slot-0 atoms' movers `Space.mover`, each an
antiderivative the Space builds once, and its `ChiralPair` keeps the Cauchy
data it assembled, which the round trip compares with.

The split sigma = sigma_+ + sigma_- + sigma_inf is bilinear for the same
reason.  `split_table` builds it once per check run as rows over atom pairs,
from the arrays the Space already holds and one integral per ordered
cross-slot atom pair, and `symplectic.bilinear` sums them
over two vectors, as it sums the Space's own sigma rows;
`sigma_decomposed(space, v, w)`, from v's and w's `dalembert` movers, is the
per-vector reference the table is tested against.  The mover side of the
Fock-norm identity is `Space.mover_norm_sq`, the Space's Fock table in the
mover basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

import numpy as np

from .errors import largest
from .funcspace import (
    TestFunction, _simpson_value, _simpson_weights, derivative, dot, kink_spectral,
)
from .symplectic import Space, SymVector


@dataclass(frozen=True)
class ChiralPair:
    """The movers of (f0, f1), their charges c_pm, and (f0, f1) themselves."""

    theta_plus: TestFunction
    theta_minus: TestFunction
    c_plus: Fraction
    c_minus: Fraction
    f0: TestFunction
    f1: TestFunction


def dalembert(space: Space, v: SymVector) -> ChiralPair:
    """v's movers; FloatOverflow when F_c or F_q does not fit a float."""
    space.charges(v).floats()
    f0, f1 = space.assemble(v)
    c, q = f0.integral, f1.right_limit - f1.left_limit
    cum = np.zeros(space.grid.n)
    for a, coeff in v.items():
        if space.atoms[a].slot == 0:
            cum += float(coeff) * space.mover(a)
    theta_p, theta_m = (TestFunction(space.grid, (f1.samples + s * cum) / 2.0, f1.left_limit / 2,
                                     (f1.right_limit + s * c) / 2, None) for s in (1, -1))
    return ChiralPair(theta_p, theta_m, (q + c) / 2, (q - c) / 2, f0, f1)


def dalembert_inverse(pair: ChiralPair) -> Tuple[TestFunction, TestFunction]:
    """Reconstruct the Cauchy pair (f0, f1) from its movers."""
    f_c = pair.c_plus - pair.c_minus
    grid = pair.theta_plus.grid
    f0_samples = kink_spectral(pair.theta_plus.samples - pair.theta_minus.samples, f_c, grid, 1)
    # restore the constant (DC) component the spectral derivative cannot see:
    # the declared charge pins the Simpson integral exactly
    f0_samples = f0_samples + (float(f_c) - _simpson_value(f0_samples, grid)) / float(
        grid.x1 - grid.x0
    )
    f0 = TestFunction(grid, f0_samples, Fraction(0), Fraction(0), f_c)
    f1 = TestFunction(
        grid,
        pair.theta_plus.samples + pair.theta_minus.samples,
        pair.theta_plus.left_limit + pair.theta_minus.left_limit,
        pair.theta_plus.right_limit + pair.theta_minus.right_limit,
        None,
    )
    return f0, f1


def roundtrip_error(pair: ChiralPair) -> float:
    """Max pointwise error of data -> (theta_+, theta_-) -> data: the pair's
    own (f0, f1) against `dalembert_inverse` of its movers."""
    f0b, f1b = dalembert_inverse(pair)
    return largest((np.max(np.abs(pair.f0.samples - f0b.samples)),
                    np.max(np.abs(pair.f1.samples - f1b.samples))))


def sigma_decomposed(space: Space, v: SymVector, w: SymVector) -> float:
    """sigma_+ + sigma_- + sigma_inf of v and w from their `dalembert` movers,
    the per-vector reference for `split_table`: sigma_pm(theta, phi) = +/-
    integral (phi d(theta) - theta d(phi)) dx, with d(theta_pm) =
    (d f1 +/- f0)/2 and d f1 from the atoms' closed forms, and sigma_inf is
    the plane form on the right limits (theta_+(+inf), theta_-(+inf))."""
    def movers(u: SymVector):
        pair = dalembert(space, u)
        f0, df1 = pair.f0.samples, np.zeros(space.grid.n)
        for a, coeff in u.items():
            if space.atoms[a].slot == 1:
                df1 += float(coeff) * derivative(space.atoms[a].fn).samples
        return pair, ((pair.theta_plus.samples, (df1 + f0) / 2.0),
                      (pair.theta_minus.samples, (df1 - f0) / 2.0))

    (p, mp), (q, mq) = movers(v), movers(w)
    plus, minus = [sign * (_simpson_value(phi * d_theta, space.grid)
                           - _simpson_value(theta * d_phi, space.grid))
                   for sign, (theta, d_theta), (phi, d_phi) in zip((1, -1), mp, mq)]
    a1, b1 = p.theta_plus.right_limit, p.theta_minus.right_limit
    a2, b2 = q.theta_plus.right_limit, q.theta_minus.right_limit
    return plus + minus + float(a1 * b2 - b1 * a2)


def split_table(space: Space) -> List[List[float]]:
    """Rows S[a][b] = sigma_decomposed(space, e_a, e_b) for atoms a, b, so
    sigma_decomposed(space, v, w) is bilinear(S, v, w) = sum c_a d_b S[a][b].

    Atom a's movers are theta_+ = u_a / 2 (u_a = `Space.mover(a)`) and
    theta_- = -theta_+ in slot 0, theta_- = theta_+ in slot 1.  So sigma_- =
    sigma_+ across the slots and -sigma_+ within one: same-slot entries are
    0.0, and for slot-0 i and slot-1 j, S[i][j] = -S[j][i] = 2 sigma_+ +
    sigma_inf = (u_j . du_i - u_i . du_j) / 2 + c_i L_j / 2, with du the
    Simpson-weighted derivative of u and c_i L_j / 2 the plane form on the
    exact right limits.  du_i = w f_i is rebuilt per pair, so that one
    weighted array per slot is live at a time, not one per atom."""
    atoms, n = space.atoms, len(space.atoms)
    weights = _simpson_weights(space.grid.n) * space.grid.step
    slot0, slot1 = ([a for a in range(n) if atoms[a].slot == slot] for slot in (0, 1))
    rows = [[0.0] * n for _ in range(n)]
    for j in slot1:
        du_j = weights * derivative(atoms[j].fn).samples
        for i in slot0:
            s = ((dot(weights * atoms[i].fn.samples, space.mover(j)) - dot(du_j, space.mover(i))) / 2
                 + float(atoms[i].fn.integral * atoms[j].fn.right_limit) / 2)
            rows[i][j], rows[j][i] = s, -s
    return rows
