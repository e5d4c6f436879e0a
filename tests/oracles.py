"""Reference formulas the tests compare the program against.

Each is either a helper that only tests call or the formula a faster path in
`src/` replaced, kept here unchanged so the tests can pin the fast path to
it bit for bit, or, where they share no transform length, to a bound.
"""

import cmath
from fractions import Fraction
from typing import Dict

import numpy as np

from weylnet.chiral import ChiralPair
from weylnet.errors import NotInDomain
from weylnet.funcspace import (
    DEFAULT_GRID, PAD, TOL_CHARGE, Grid, TestFunction, _same_grid, _simpson_value, _simpson_weights,
    derivative, dot, kink_spectral,
)
from weylnet.gns import VACUUM, GnsVector, _plane_key, apply_elementary, phi_n_apply, sector_inner
from weylnet.states import State, eval_state
from weylnet.symplectic import Space, SymVector
from weylnet.weyl import COEFF_EPS, CrossedProduct, Staged, WeylElement, weyl_mul, weyl_star


def simpson(f: TestFunction) -> float:
    """Composite Simpson over the window (tails contribute only if zero)."""
    return _simpson_value(f.samples, f.grid)


def zero_function(grid: Grid = DEFAULT_GRID) -> TestFunction:
    return TestFunction(grid, np.zeros(grid.n), Fraction(0), Fraction(0), Fraction(0))


def unshared(text: str) -> str:
    """Registry text with every function that a pair line reads again declared
    again, under a fresh name, just before that line: no two generator slots
    of the Space it parses to share an atom."""
    specs, seen, out = {}, set(), []
    for line in text.splitlines():
        tokens = line.split("#", 1)[0].split()
        if tokens[:1] == ["fn"]:
            specs[tokens[1]] = tokens[2:]
        elif tokens[:1] == ["pair"]:
            refs = []
            for token in tokens[2:]:
                key, ref = token.split("=")
                if ref in seen:
                    fresh = f"{ref}_{len(out)}"
                    out.append(" ".join(["fn", fresh, *specs[ref]]))
                    ref = fresh
                elif ref != "0":
                    seen.add(ref)
                refs.append(f"{key}={ref}")
            line = " ".join(["pair", tokens[1], *refs])
        out.append(line)
    return "\n".join(out)


def fold_phase(c: Fraction, n: float) -> complex:
    """|c, n> = fold_phase(c, n) |c, 0>."""
    return cmath.exp(0.5j * float(c) * float(n))


def apply_word(space: Space, A: WeylElement, v: GnsVector) -> GnsVector:
    """pi(A) v, term by term through `apply_elementary`."""
    out = GnsVector(())
    for key, coeff in A.terms():
        den, c, plus, minus = _plane_key(space, key)
        out = out + apply_elementary(Fraction(c, den), (plus + minus) / (2 * den), v).scale(coeff)
    return out


def staged_inverse(cp: CrossedProduct, x: Staged) -> Staged:
    """The inverse of x in the staged group law of `cp`."""
    zeta = cmath.exp(1j * cp.alpha(x.h, x.c, x.n)) / x.zeta
    return Staged(zeta, -x.h, -x.c, -x.n)


def staged_conjugate(cp: CrossedProduct, s: Staged, m: Staged) -> Staged:
    """s m s^-1 in the staged group law of `cp`."""
    return cp.product(cp.product(s, m), staged_inverse(cp, s))


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


def split_table_by_movers(space: Space) -> list:
    """`chiral.split_table` as it was written over the movers' signs eps and
    limits: rows S[a][b] = (P[a, b] - P[b, a]) / 2 + 2 sigma_inf across the
    slots, P[a, b] = 4 integral theta_+b d(theta_+a), and 0.0 within one.
    It builds each slot-0 antiderivative itself."""
    atoms, n, grid = space.atoms, len(space.atoms), space.grid
    weights = _simpson_weights(grid.n) * grid.step
    theta = [kink_spectral(atom.fn.samples, atom.fn.integral, grid, -1) if atom.slot == 0
             else atom.fn.samples for atom in atoms]
    P = {}
    for a, atom in enumerate(atoms):
        y = weights * (atom.fn if atom.slot == 0 else derivative(atom.fn)).samples
        P.update({(a, b): dot(y, theta[b]) for b in range(n) if atoms[b].slot != atom.slot})
    # exact right limits: theta_+ has L_a / 2 and theta_- eps_a L_a / 2
    half = [(atom.fn.integral if atom.slot == 0 else atom.fn.right_limit) / 2 for atom in atoms]
    eps = [-1.0 if atom.slot == 0 else 1.0 for atom in atoms]
    return [[(P[a, b] - P[b, a]) / 2
             + float(half[a] * half[b]) * (eps[b] - eps[a]) if eps[a] != eps[b] else 0.0
             for b in range(n)] for a in range(n)]


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
    """`weyl.max_coeff_distance` without its one-term path, and reduced by
    max(): the reference for finite coefficients only, since max() drops the
    NaN that `largest` refuses."""
    coeffs: Dict[SymVector, complex] = {v: a for v, a in A.terms()}
    worst = 0.0
    for v, b in B.terms():
        worst = max(worst, abs(coeffs.pop(v, 0j) - b))
    for a in coeffs.values():
        worst = max(worst, abs(a))
    return worst


def general_star(A: WeylElement) -> list:
    """The terms of A* as the dict path builds them: each coefficient's
    conjugate summed from 0j, kept unless below COEFF_EPS, sorted as `items()`."""
    acc: Dict[SymVector, complex] = {}
    for v, a in A.terms():
        acc[-v] = acc.get(-v, 0j) + a.conjugate()
    kept = [(v, a) for v, a in acc.items() if not abs(a) < COEFF_EPS]
    return sorted(kept, key=lambda t: t[0].items())


def full_gram(space: Space, state: State, words) -> np.ndarray:
    """`states.gram_psd`'s matrix before it graded the delta states: every
    term of w_i* w_j built by `weyl_mul` and read by `eval_state`."""
    n = len(words)
    M = np.zeros((n, n), dtype=complex)
    stars = [weyl_star(w) for w in words]
    for i in range(n):
        for j in range(n):
            M[i, j] = eval_state(space, state, weyl_mul(space, stars[i], words[j]))
    return M


# The Fock form's padded per-vector sums: `funcspace.fock_column`'s kernels
# hold the lags of the same sums on 2n points, so these share no transform
# length with the program's path.


def _weighted_spectrum_sum(samples: np.ndarray, grid: Grid, pad: int):
    n = grid.n
    m = pad * n
    h = grid.step
    # unitary-convention continuous transform on the padded grid
    ft = np.fft.rfft(samples, n=m) * (h / np.sqrt(2.0 * np.pi))
    p = 2.0 * np.pi * np.fft.rfftfreq(m, d=h)
    dp = 2.0 * np.pi / (m * h)
    mult = np.full(p.shape, 2.0)
    mult[0] = 1.0
    if m % 2 == 0:
        mult[-1] = 1.0
    return ft, p, dp, mult


def padded_fock_norm_sq(f0: TestFunction, f1: TestFunction, pad: int = PAD) -> float:
    """integral ( |p|^-1 |f0~|^2 + |p| |f1~|^2 ) dp on the padded DFT grid;
    NotInDomain, before any transform, unless both slots have zero limits
    and f0 a zero Simpson integral.

    The p = 0 term of the |p|^-1 part is set to zero; this is exact because
    the precondition forces f0~(0) = 0.  The |p| part is
    padded_chiral_norm_sq(f1).
    """
    if f0.left_limit != 0 or f0.right_limit != 0:
        raise NotInDomain("f0 must have zero limits")
    if f1.left_limit != 0 or f1.right_limit != 0:
        raise NotInDomain("f1 must have zero limits")
    if abs(simpson(f0)) > TOL_CHARGE:
        raise NotInDomain("f0 must have zero integral (charge)")
    _same_grid(f0, f1)
    ft0, p, dp, mult = _weighted_spectrum_sum(f0.samples, f0.grid, pad)
    inv = np.zeros_like(p)
    inv[1:] = 1.0 / p[1:]
    total = np.sum(mult * inv * np.abs(ft0) ** 2) * dp
    # Euler-Maclaurin corner correction at p = 0: the integrand is even with
    # a slope discontinuity there, which a plain Riemann sum feels at
    # O(dp^2).  The one-sided slope is |d f0~/dp (0)|^2.
    total += dp**2 / 6.0 * (np.abs(ft0[1]) / dp) ** 2
    return float(total) + padded_chiral_norm_sq(f1, pad)


def padded_chiral_norm_sq(theta: TestFunction, pad: int = PAD) -> float:
    """integral |p| |theta~|^2 dp for a decaying chiral function, on the
    padded DFT grid."""
    if theta.left_limit != 0 or theta.right_limit != 0:
        raise NotInDomain("chiral norm needs zero limits")
    ft, p, dp, mult = _weighted_spectrum_sum(theta.samples, theta.grid, pad)
    total = float(np.sum(mult * p * np.abs(ft) ** 2) * dp)
    return total + dp**2 / 6.0 * float(np.abs(ft[0]) ** 2)
