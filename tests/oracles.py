"""Reference formulas the tests compare the program against.

Each is either a helper that only tests call or the formula a faster path in
`src/` replaced, kept here unchanged so the tests can pin the fast path to
it bit for bit.
"""

from fractions import Fraction
from typing import Dict

import numpy as np

from weylnet.chiral import ChiralPair
from weylnet.funcspace import DEFAULT_GRID, Grid, TestFunction
from weylnet.gns import VACUUM, GnsVector, apply_elementary, apply_word, phi_n_apply, sector_inner
from weylnet.symplectic import Space, SymVector
from weylnet.weyl import COEFF_EPS, WeylElement


def zero_function(grid: Grid = DEFAULT_GRID) -> TestFunction:
    return TestFunction(grid, np.zeros(grid.n), Fraction(0), Fraction(0), Fraction(0))


def gns_expectation(space: Space, A: WeylElement) -> complex:
    """<0| pi(A) |0>: the (non-tracial) delta state defining the sector."""
    return sector_inner(VACUUM, apply_word(space, A, VACUUM))


def phi_n_difference_defect(v: GnsVector, n: float) -> float:
    """|| (pi(W(0, n)) - I) / (i n) v - Phi_N v ||, O(n) as n -> 0."""
    diff = (apply_elementary(0, n, v) - v).scale(1.0 / (1j * n))
    return (diff - phi_n_apply(v)).norm()


def sigma_infinity(p: ChiralPair, q: ChiralPair) -> float:
    """Plane form on the right-limit data (theta_+(+inf), theta_-(+inf))."""
    a1, b1 = p.theta_plus.right_limit, p.theta_minus.right_limit
    a2, b2 = q.theta_plus.right_limit, q.theta_minus.right_limit
    return float(a1 * b2 - b1 * a2)


def dense_bilinear(rows, v: SymVector, w: SymVector) -> float:
    """`symplectic.bilinear` before it skipped zero entries: every product
    c_a d_b rows[a][b] added, in v's and then w's atom order."""
    dw = w._den
    ds = [(b, nb / dw) for b, nb in w._nums]
    total = 0.0
    for a, na in v._nums:
        ca, row = na / v._den, rows[a]
        for b, db in ds:
            total += ca * db * row[b]
    return total


def general_max_coeff_distance(A: WeylElement, B: WeylElement) -> float:
    """`weyl.max_coeff_distance` without its one-term path."""
    coeffs: Dict[SymVector, complex] = {v: a for v, a in A.terms()}
    worst = 0.0
    for v, b in B.terms():
        worst = max(worst, abs(coeffs.pop(v, 0j) - b))
    for a in coeffs.values():
        worst = max(worst, abs(a))
    return worst


def general_star(A: WeylElement) -> list:
    """The terms of A* as the dict path builds them: each coefficient's
    conjugate summed from 0j, kept from COEFF_EPS, sorted as `items()`."""
    acc: Dict[SymVector, complex] = {}
    for v, a in A.terms():
        acc[-v] = acc.get(-v, 0j) + a.conjugate()
    kept = [(v, a) for v, a in acc.items() if abs(a) >= COEFF_EPS]
    return sorted(kept, key=lambda t: t[0].items())
