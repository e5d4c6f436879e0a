"""Grid-sampled test functions with exact constant tails.

Functions are sampled on a uniform grid over a window [x0, x1] and treated as
exactly constant beyond it, the constants being declared exact rationals.
This makes the inverse-derivative classes representable: a kink that runs
from -1/2 to 1/2 is an honest element of the space even though its samples
stop at the window edge.

Quadrature is composite Simpson, differentiation is a 4th-order central
stencil (one-sided at the edges), the antiderivative of a charged density
is a closed-form kink plus the spectral integral of the zero-charge
remainder, and the Fock norm is a discrete Fourier transform on the
zero-padded grid, whose |p| half is the chiral norm; fock_column turns one
function into a column of that quadratic form, so a norm over fixed atoms
needs no transform per vector.
The Fourier convention is unitary,
f~(p) = (2*pi)^(-1/2) * integral f(x) exp(-i p x) dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple, Union

import numpy as np

from .errors import BadGrid, DivergentTail, EdgeMismatch, NotInDomain

TOL_EDGE = 1e-9
TOL_CHARGE = 1e-9
TOL_SUPP = 1e-12


@dataclass(frozen=True, order=True)
class Grid:
    x0: Fraction
    x1: Fraction
    n: int

    def __post_init__(self):
        # samples sit at float positions, so the float ends must differ, and
        # the Fourier weights square 1/step, so step**-2 must be a float too
        try:
            fits = self.n >= 8 and float(self.x0) < float(self.x1) and math.isfinite(self.step**-2)
        except (OverflowError, ZeroDivisionError):
            fits = False
        if self.x1 <= self.x0 or not fits:
            raise BadGrid(f"bad grid window/size: {short(self.x0)}..{short(self.x1)} n={self.n}")

    @property
    def step(self) -> float:
        return float(self.x1 - self.x0) / (self.n - 1)

    @property
    def step_exact(self) -> Fraction:
        return (self.x1 - self.x0) / (self.n - 1)

    def x_at(self, i: int) -> Fraction:
        return self.x0 + i * self.step_exact

    def xs(self) -> np.ndarray:
        return _grid_xs(self)


def short(x: Fraction) -> str:
    """x for a message: as p/q when that is short, else to six digits."""
    if x.numerator.bit_length() + x.denominator.bit_length() <= 64:
        return str(x)
    ctx = Context(prec=6, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return f"{ctx.divide(Decimal(x.numerator), x.denominator).normalize(ctx):g}"


@lru_cache(maxsize=64)
def _grid_xs(grid: Grid) -> np.ndarray:
    xs = np.linspace(float(grid.x0), float(grid.x1), grid.n)
    xs.setflags(write=False)
    return xs


DEFAULT_GRID = Grid(Fraction(-32), Fraction(32), 4096)


class _Empty:
    """Localization marker for pairs (0, constant): contained in any interval."""

    is_empty = True

    def __repr__(self):
        return "EMPTY"


EMPTY = _Empty()


@dataclass(frozen=True)
class Interval:
    a: Fraction
    b: Fraction
    is_empty = False

    def __post_init__(self):
        if not self.a < self.b:
            raise BadGrid(f"interval needs a < b, got {self!r}")

    def disjoint(self, other: "Interval") -> bool:
        return self.b <= other.a or other.b <= self.a

    def contains(self, other: Union["Interval", _Empty]) -> bool:
        if other.is_empty:
            return True
        return self.a <= other.a and other.b <= self.b

    def left_of(self, other: "Interval") -> bool:
        return self.b <= other.a

    def __repr__(self):
        return f"[{short(self.a)}, {short(self.b)}]"


@dataclass(frozen=True, eq=False)
class TestFunction:
    grid: Grid
    samples: np.ndarray = field(repr=False)
    left_limit: Fraction
    right_limit: Fraction
    # Declared exact value of the integral over the real line, when finite
    # and known (used as the exact charge of slot-0 components).
    integral: Optional[Fraction] = None
    # Optional closed-form derivative companion; derivative() returns it when
    # present instead of falling back to finite differences.
    deriv: Optional["TestFunction"] = field(default=None, repr=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.shape != (self.grid.n,):
            raise BadGrid(f"expected {self.grid.n} samples, got {s.shape}")
        s = s.copy()
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    def is_zero(self) -> bool:
        return (
            self.left_limit == 0
            and self.right_limit == 0
            and not np.any(self.samples)
        )

    def is_constant(self) -> bool:
        return self.left_limit == self.right_limit and not np.ptp(self.samples)


def make_grid_function(
    samples,
    grid: Grid,
    left_limit: Fraction,
    right_limit: Fraction,
    integral: Optional[Fraction] = None,
) -> TestFunction:
    """Validated constructor: samples must be finite, and the edge samples
    must agree with the declared limits."""
    s = np.asarray(samples, dtype=float)
    if s.shape != (grid.n,):
        raise BadGrid(f"expected {grid.n} samples, got {s.shape}")
    bad = np.flatnonzero(~np.isfinite(s))
    if bad.size:
        raise BadGrid(f"non-finite sample {s[bad[0]]} at index {bad[0]}")
    left_limit = Fraction(left_limit)
    right_limit = Fraction(right_limit)
    if abs(s[0] - float(left_limit)) > TOL_EDGE:
        raise EdgeMismatch(f"left edge sample {s[0]} vs declared {left_limit}")
    if abs(s[-1] - float(right_limit)) > TOL_EDGE:
        raise EdgeMismatch(f"right edge sample {s[-1]} vs declared {right_limit}")
    return TestFunction(grid, s, left_limit, right_limit, integral)


def zero_function(grid: Grid = DEFAULT_GRID) -> TestFunction:
    return TestFunction(grid, np.zeros(grid.n), Fraction(0), Fraction(0), Fraction(0))


def constant_function(value: Fraction, grid: Grid = DEFAULT_GRID) -> TestFunction:
    value = Fraction(value)
    dz = TestFunction(grid, np.zeros(grid.n), Fraction(0), Fraction(0), Fraction(0))
    return TestFunction(
        grid, np.full(grid.n, float(value)), value, value, None, deriv=dz
    )


# (1 - u^2)^8 bump: C^8 at the support edges, which keeps composite-Simpson
# charges at declared-rational accuracy on the default grid.
_BUMP_EXPONENT = 8
# integral of (1-u^2)^8 over [-1, 1]
_BUMP_MASS = Fraction(2 * 65536, 109395)


def _bump_poly(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = (1.0 - u[inside] ** 2) ** _BUMP_EXPONENT
    return out


def _bump_antideriv(u: np.ndarray) -> np.ndarray:
    """Integral of (1-v^2)^8 from -1 to u, clipped outside the support."""
    uc = np.clip(u, -1.0, 1.0)
    # expand (1-v^2)^8 and integrate termwise
    val = np.zeros_like(uc)
    for k in range(_BUMP_EXPONENT + 1):
        coeff = math.comb(_BUMP_EXPONENT, k) * (-1) ** k / (2 * k + 1)
        val += coeff * (uc ** (2 * k + 1) - (-1.0) ** (2 * k + 1))
    return val


def make_kink(
    center: Fraction,
    width: Fraction,
    compact: bool,
    grid: Grid = DEFAULT_GRID,
    form: str = "step",
) -> TestFunction:
    """Smooth monotone step with limits (-1/2, 1/2), or its derivative.

    compact=True uses the polynomial smoothstep whose derivative is supported
    in [center - width, center + width], which must lie in the window: a
    support cut by the window edge would be silently renormalized, or have
    no mass at all.  compact=False is the arctan profile,
    rescaled so the declared limits are attained exactly at the window edges
    (the raw arctan misses them by O(width/window)).
    form="deriv" returns the derivative function in closed form, with its
    quadrature value snapped to the exact declared integral 1.
    """
    center = Fraction(center)
    width = Fraction(width)
    if width <= 0:
        raise BadGrid("width must be positive")
    if float(width) < 4 * grid.step:
        raise BadGrid(f"width {short(width)} below 4*step {4 * grid.step}")
    if compact and not grid.x0 <= center - width < center + width <= grid.x1:
        support, window = Interval(center - width, center + width), Interval(grid.x0, grid.x1)
        raise BadGrid(f"compact kink support {support} leaves the window {window}")
    xs = grid.xs()
    u = (xs - float(center)) / float(width)
    if compact:
        d = _bump_poly(u) / (float(_BUMP_MASS) * float(width))
    else:
        # symmetric scale from the nearer window edge; clamp on the far side
        near = min(float(grid.x1 - center), float(center - grid.x0)) / float(width)
        scale = 0.5 / np.arctan(near)
        d = scale / (float(width) * (1.0 + u**2))
        d[np.abs(scale * np.arctan(u)) > 0.5] = 0.0
    # snap the Simpson value of the charge to exactly 1
    deriv = TestFunction(grid, d / _simpson_value(d, grid), Fraction(0), Fraction(0), Fraction(1))
    if form != "step":
        return deriv
    if compact:
        s = float(Fraction(109395, 65536)) * _bump_antideriv(u) - 0.5
        s[u >= 1.0] = 0.5
        s[u <= -1.0] = -0.5
    else:
        s = np.clip(scale * np.arctan(u), -0.5, 0.5)
        s[0] = -0.5 if center - grid.x0 <= grid.x1 - center else s[0]
        s[-1] = 0.5 if grid.x1 - center <= center - grid.x0 else s[-1]
        if abs(s[0] + 0.5) > TOL_EDGE or abs(s[-1] - 0.5) > TOL_EDGE:
            raise EdgeMismatch("kink does not reach its limits on this window")
    return TestFunction(grid, s, Fraction(-1, 2), Fraction(1, 2), None, deriv=deriv)


def hermite_gaussian(order: int, center: Fraction, grid: Grid = DEFAULT_GRID) -> TestFunction:
    """L2-normalized Hermite function H_k(x-c) exp(-(x-c)^2/2)."""
    center = Fraction(center)
    y = grid.xs() - float(center)
    h_prev = np.ones_like(y)
    h = 2.0 * y
    if order == 0:
        h = h_prev
    else:
        for k in range(1, order):
            h, h_prev = 2.0 * y * h - 2.0 * k * h_prev, h
    norm = 1.0 / math.sqrt(2.0**order * math.factorial(order) * math.sqrt(math.pi))
    gauss = np.exp(-0.5 * y**2)
    s = norm * h * gauss
    # closed-form derivative: H_k' = 2k H_{k-1}
    ds = norm * (2.0 * order * h_prev - y * h) * gauss if order > 0 else -norm * y * gauss
    d = TestFunction(grid, ds, Fraction(0), Fraction(0), Fraction(0))
    integral = Fraction(0) if order % 2 == 1 else None
    return TestFunction(grid, s, Fraction(0), Fraction(0), integral, deriv=d)


# ---------------------------------------------------------------------------
# calculus


@lru_cache(maxsize=64)
def _simpson_weights(n: int) -> np.ndarray:
    # unit-step weights; multiply by h at use.  For an even sample count the
    # final interval is closed with a trapezoid cell (the tails are flat
    # there, so the lower-order cell costs nothing).
    w = np.zeros(n)
    m = n if n % 2 == 1 else n - 1
    w[0:m:2] += 2.0 / 3.0
    w[1:m:2] += 4.0 / 3.0
    w[0] -= 1.0 / 3.0
    w[m - 1] -= 1.0 / 3.0
    if m != n:
        w[-2] += 0.5
        w[-1] += 0.5
    w.setflags(write=False)
    return w


def _simpson_value(samples: np.ndarray, grid: Grid) -> float:
    return float(np.dot(_simpson_weights(grid.n), samples)) * grid.step


def simpson(f: TestFunction) -> float:
    """Composite Simpson over the window (tails contribute only if zero)."""
    return _simpson_value(f.samples, f.grid)


_D4_INTERIOR = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_D4_EDGE = (
    np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / 12.0,
    np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / 12.0,
)


def derivative(f: TestFunction) -> TestFunction:
    """Closed-form derivative when attached, else 4th-order finite
    differences; output limits are (0, 0)."""
    if f.deriv is not None:
        return f.deriv
    s = f.samples
    h = f.grid.step
    d = np.empty_like(s)
    d[2:-2] = (s[:-4] - 8.0 * s[1:-3] + 8.0 * s[3:-1] - s[4:]) / (12.0 * h)
    d[0] = np.dot(_D4_EDGE[0], s[:5]) / h
    d[1] = np.dot(_D4_EDGE[1], s[:5]) / h
    d[-1] = -np.dot(_D4_EDGE[0], s[-5:][::-1]) / h
    d[-2] = -np.dot(_D4_EDGE[1], s[-5:][::-1]) / h
    return TestFunction(f.grid, d, Fraction(0), Fraction(0), None)


def resample(f: TestFunction, grid: Grid) -> TestFunction:
    """Cubic Lagrange resampling onto another grid; tails stay constant."""
    if f.grid == grid:
        return f
    xs = grid.xs()
    src = f.grid
    out = np.empty(grid.n)
    t = (xs - float(src.x0)) / src.step
    left = t < 0
    right = t > src.n - 1
    out[left] = float(f.left_limit)
    out[right] = float(f.right_limit)
    mid = ~(left | right)
    tm = t[mid]
    i = np.clip(np.floor(tm).astype(int), 1, src.n - 3)
    u = tm - i
    s = f.samples
    out[mid] = (
        s[i - 1] * (-u * (u - 1) * (u - 2) / 6.0)
        + s[i] * ((u + 1) * (u - 1) * (u - 2) / 2.0)
        + s[i + 1] * (-(u + 1) * u * (u - 2) / 2.0)
        + s[i + 2] * ((u + 1) * u * (u - 1) / 6.0)
    )
    d = resample(f.deriv, grid) if f.deriv is not None else None
    return TestFunction(grid, out, f.left_limit, f.right_limit, f.integral, deriv=d)


def _same_grid(f: TestFunction, g: TestFunction) -> None:
    if f.grid != g.grid:
        raise BadGrid(f"grids differ: {f.grid} and {g.grid}; resample first")


def pairing(f: TestFunction, g: TestFunction) -> float:
    """integral f*g dx with exact constant-tail accounting.

    The tails contribute only when exactly one factor is constant zero there;
    two nonzero tails on the same side would diverge.
    """
    for side, (fl, gl) in (
        ("left", (f.left_limit, g.left_limit)),
        ("right", (f.right_limit, g.right_limit)),
    ):
        if fl != 0 and gl != 0:
            raise DivergentTail(f"both factors have nonzero {side} tails")
    _same_grid(f, g)
    return _simpson_value(f.samples * g.samples, f.grid)


def _spectral_int(samples: np.ndarray, h: float) -> np.ndarray:
    """Periodic antiderivative of a decaying zero-mean sample set, G(x0) = 0."""
    n = len(samples)
    ft = np.fft.rfft(samples)
    p = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    out = np.zeros_like(ft)
    out[1:] = ft[1:] / (1j * p[1:])
    if n % 2 == 0:
        out[-1] = 0.0
    g = np.fft.irfft(out, n=n)
    return g - g[0]


@lru_cache(maxsize=64)
def _unit_kink(grid: Grid) -> Tuple[TestFunction, np.ndarray]:
    """The compact unit kink's derivative and its samples as a step from 0 to 1."""
    step = make_kink(Fraction(0), Fraction(1), True, grid=grid, form="step")
    return step.deriv, step.samples + 0.5


def _charge_antiderivative(f0: TestFunction, f_c: Fraction) -> np.ndarray:
    """Antiderivative of f0 with exact limits (0, f_c): kink part in closed
    form, spectral integral of the decaying zero-charge remainder."""
    k_deriv, k_step = _unit_kink(f0.grid)
    fc = float(f_c)
    g = f0.samples - fc * k_deriv.samples
    return fc * k_step + _spectral_int(g, f0.grid.step)


# ---------------------------------------------------------------------------
# Fourier norms

# zero padding of the Fourier norms; Space's Fock product table assumes it
PAD = 4


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


def fock_norm_sq(
    f0: TestFunction, f1: TestFunction, pad: int = PAD
) -> float:
    """integral ( |p|^-1 |f0~|^2 + |p| |f1~|^2 ) dp on the padded DFT grid;
    NotInDomain, before any transform, unless both slots have zero limits
    and f0 a zero Simpson integral.

    The p = 0 term of the |p|^-1 part is set to zero; this is exact because
    the precondition forces f0~(0) = 0.  The |p| part is chiral_norm_sq(f1).
    This is the per-vector reference; Space.fock_norm_sq sums the same form
    over fock_column products.
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
    return float(total) + chiral_norm_sq(f1, pad)


def fock_column(f: TestFunction, slot: int) -> np.ndarray:
    """y = irfft(W_slot * rfft(f)): for g in the same slot, g.samples @ y is
    the product of g and f in the form fock_norm_sq sums, corner term
    included, so fock_norm_sq(f0, f1) = f0.samples @ fock_column(f0, 0)
    + f1.samples @ fock_column(f1, 1) up to rounding."""
    n, h = f.grid.n, f.grid.step
    m = PAD * n
    w = 2.0 * np.pi * np.fft.rfftfreq(m, d=h)  # p
    dp = 2.0 * np.pi / (m * h)
    if slot == 0:
        np.divide(dp, w[1:], out=w[1:])
        w[1] += 1.0 / 12.0  # |f0~(dp)|^2 / 6, halved: irfft counts bin 1 twice
    else:
        w *= dp
        w[0] += dp**2 / 6.0
    # irfft divides by m; both sides' h / sqrt(2 pi) go into W
    w *= m * h * h / (2.0 * np.pi)
    # in place, and copied out of the padded result, so a column holds one
    # padded spectrum at a time and keeps only n floats afterwards
    ft = np.fft.rfft(f.samples, n=m)
    ft *= w
    return np.fft.irfft(ft, n=m)[:n].copy()


def chiral_norm_sq(theta: TestFunction, pad: int = PAD) -> float:
    """integral |p| |theta~|^2 dp for a decaying chiral function."""
    if theta.left_limit != 0 or theta.right_limit != 0:
        raise NotInDomain("chiral norm needs zero limits")
    ft, p, dp, mult = _weighted_spectrum_sum(theta.samples, theta.grid, pad)
    total = float(np.sum(mult * p * np.abs(ft) ** 2) * dp)
    return total + dp**2 / 6.0 * float(np.abs(ft[0]) ** 2)


# ---------------------------------------------------------------------------
# localization


def localization(f0: TestFunction, f1: TestFunction) -> Union[Interval, _Empty]:
    """Smallest interval holding supp f0 and supp (d f1); EMPTY for (0, const)."""
    mask = np.abs(f0.samples) > TOL_SUPP
    if not f1.is_constant():
        mask |= np.abs(derivative(f1).samples) > TOL_SUPP
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return EMPTY
    grid = f0.grid
    lo = max(idx[0] - 1, 0)
    hi = min(idx[-1] + 1, grid.n - 1)
    return Interval(grid.x_at(lo), grid.x_at(hi))
