"""Grid-sampled test functions with exact constant tails.

Functions are sampled on a uniform grid over a window [x0, x1] and treated as
exactly constant beyond it, the constants being declared exact rationals.
This makes the inverse-derivative classes representable: a kink that runs
from -1/2 to 1/2 is an honest element of the space even though its samples
stop at the window edge.

Quadrature is composite Simpson, differentiation is a 4th-order central
stencil on the tail-extended samples, the antiderivative of a charged density
and the derivative of a step, its d'Alembert inverse, are one routine
(`kink_spectral`: a closed-form kink plus `_spectral` of the decaying
remainder), and the Fock norm, whose |p| half is the chiral norm, is a
discrete Fourier sum on the zero-padded grid read only through fock_column:
a 2n-point convolution with a per-grid kernel, so a norm over fixed atoms
needs no FFT per vector (tests/oracles.py keeps the padded per-vector sums).
The Fourier convention is unitary,
f~(p) = (2*pi)^(-1/2) * integral f(x) exp(-i p x) dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .errors import BadGrid, DivergentTail, EdgeMismatch, NotInDomain

TOL_EDGE = 1e-9
TOL_CHARGE = 1e-9
TOL_SUPP = 1e-12


@dataclass(frozen=True, order=True)
class Grid:
    """A uniform grid of n points on [x0, x1].  `step_exact` = (x1 - x0) /
    (n - 1) and `step`, its float as float(x1 - x0) / (n - 1), are computed
    once; they take no part in equality, hash, order or repr."""

    x0: Fraction
    x1: Fraction
    n: int
    step: float = field(init=False, repr=False, compare=False)
    step_exact: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # samples sit at float positions, so the float ends must differ, and
        # the Fourier weights square 1/step, so step**-2 must be a float too
        try:
            object.__setattr__(self, "step_exact", (self.x1 - self.x0) / (self.n - 1))
            object.__setattr__(self, "step", float(self.x1 - self.x0) / (self.n - 1))
            fits = self.n >= 8 and float(self.x0) < float(self.x1) and math.isfinite(self.step**-2)
        except (OverflowError, ZeroDivisionError):
            fits = False
        if self.x1 <= self.x0 or not fits:
            raise BadGrid(f"bad grid window/size: {short(self.x0)}..{short(self.x1)} n={self.n}")

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


@dataclass(frozen=True)
class Interval:
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not self.a < self.b:
            raise BadGrid(f"interval needs a < b, got {self!r}")

    def disjoint(self, other: "Interval") -> bool:
        return self.b <= other.a or other.b <= self.a

    def contains(self, other: Optional["Interval"]) -> bool:
        """Whether other lies in self; None, an empty localization, lies in any interval."""
        return other is None or (self.a <= other.a and other.b <= self.b)

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
_BUMP_MASS = Fraction(65536, 109395)


def _bump_poly(u: np.ndarray) -> np.ndarray:
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = (1.0 - u[inside] ** 2) ** _BUMP_EXPONENT
    return out


def _bump_antideriv(u: np.ndarray) -> np.ndarray:
    """Integral of (1-v^2)^8 from -1 to u, for u in the support [-1, 1]."""
    # expand (1-v^2)^8 and integrate termwise
    val = np.zeros_like(u)
    for k in range(_BUMP_EXPONENT + 1):
        coeff = math.comb(_BUMP_EXPONENT, k) * (-1) ** k / (2 * k + 1)
        val += coeff * (u ** (2 * k + 1) - (-1.0) ** (2 * k + 1))
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
    no mass at all.  compact=False is the arctan profile, whose center must
    lie strictly inside the window: it is rescaled so the declared limits
    are attained exactly at the nearer window edge, and clipped to them
    toward the farther one (the raw arctan misses them by O(width/window)).
    form="deriv" returns the derivative function in closed form, with its
    quadrature value snapped to the exact declared integral 1; a step
    carries that same function as its `deriv`.  The compact step evaluates
    its polynomial only on the support |u| < 1 and holds the limits -1/2
    and 1/2 exactly off it.
    """
    center = Fraction(center)
    width = Fraction(width)
    if width <= 0:
        raise BadGrid("width must be positive")
    if float(width) < 4 * grid.step:
        raise BadGrid(f"width {short(width)} below 4*step {4 * grid.step}")
    window = Interval(grid.x0, grid.x1)
    if compact and not grid.x0 <= center - width < center + width <= grid.x1:
        support = Interval(center - width, center + width)
        raise BadGrid(f"compact kink support {support} leaves the window {window}")
    if not compact and not grid.x0 < center < grid.x1:
        raise BadGrid(f"arctan kink center {short(center)} not inside the window {window}")
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
        # the limits off the support; the polynomial only on it
        s = np.where(u > 0.0, 0.5, -0.5)
        inside = np.abs(u) < 1.0
        s[inside] = float(1 / _BUMP_MASS) * _bump_antideriv(u[inside]) - 0.5
    else:
        s = np.clip(scale * np.arctan(u), -0.5, 0.5)
        s[0], s[-1] = -0.5, 0.5
    return TestFunction(grid, s, Fraction(-1, 2), Fraction(1, 2), None, deriv=deriv)


# the largest order whose normalization 1/sqrt(2^k k! sqrt(pi)) is a nonzero float
HERMITE_MAX_ORDER = 150


def hermite_gaussian(order: int, center: Fraction, grid: Grid = DEFAULT_GRID) -> TestFunction:
    """L2-normalized Hermite function H_k(x-c) exp(-(x-c)^2/2), for orders
    0..HERMITE_MAX_ORDER and a center c in the window."""
    if not 0 <= order <= HERMITE_MAX_ORDER:
        raise ValueError(f"gaussian-hermite order {order} outside 0..{HERMITE_MAX_ORDER}")
    center, window = Fraction(center), Interval(grid.x0, grid.x1)
    if not window.a <= center <= window.b:
        raise BadGrid(f"gaussian-hermite center {short(center)} outside the window {window}")
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


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """a . b for 1-d arrays, summed by numpy's own loop: BLAS splits a long
    dot product across its threads, and so its rounding with their number."""
    return float(np.einsum("i,i->", a, b))


def _simpson_value(samples: np.ndarray, grid: Grid) -> float:
    return dot(_simpson_weights(grid.n), samples) * grid.step


def derivative(f: TestFunction) -> TestFunction:
    """Closed-form derivative when attached, else the 4th-order central stencil
    on samples extended by two copies of each edge sample; limits (0, 0)."""
    if f.deriv is not None:
        return f.deriv
    s = f.samples
    e = np.concatenate((s[:1], s[:1], s, s[-1:], s[-1:]))
    d = (e[:-4] - 8.0 * e[1:-3] + 8.0 * e[3:-1] - e[4:]) / (12.0 * f.grid.step)
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


def _spectral(samples: np.ndarray, h: float, power: int) -> np.ndarray:
    """(i p)^power times the DFT of a decaying sample set: its periodic
    derivative (power 1) or its zero-mean antiderivative with G(x0) = 0
    (power -1).  An even grid's Nyquist bin is lost both ways: rfft gives
    it real, i p makes it imaginary, and irfft reads its real part only."""
    n = len(samples)
    ft, ip = np.fft.rfft(samples), _ip(n, h)
    if power == 1:
        ft *= ip
    else:
        ft[0] = 0.0
        ft[1:] /= ip[1:]
    g = np.fft.irfft(ft, n=n)
    return g if power == 1 else g - g[0]


@lru_cache(maxsize=64)
def _ip(n: int, h: float) -> np.ndarray:
    """i p on the rfft bins of n points of step h, read-only."""
    ip = 1j * (2.0 * np.pi * np.fft.rfftfreq(n, d=h))
    ip.setflags(write=False)
    return ip


@lru_cache(maxsize=64)
def _unit_kink(grid: Grid) -> Tuple[np.ndarray, np.ndarray]:
    """The compact unit kink's derivative samples and its samples as a step from 0 to 1."""
    step = make_kink(Fraction(0), Fraction(1), True, grid=grid, form="step")
    return step.deriv.samples, step.samples + 0.5


def kink_spectral(samples: np.ndarray, charge: Fraction, grid: Grid, power: int) -> np.ndarray:
    """The antiderivative (power -1), limits (0, charge), of a density of
    integral `charge`, or the derivative (power 1) of a step from 0 to
    `charge`: `charge` times the compact unit kink in closed form, and
    `_spectral` of the decaying rest.  The two are an exact inverse pair."""
    kink = _unit_kink(grid)
    taken, given = kink if power == -1 else kink[::-1]
    c = float(charge)
    return c * given + _spectral(samples - c * taken, grid.step, power)


# ---------------------------------------------------------------------------
# Fourier norms

# the Fock form's zero padding: the kernels hold its PAD * n-point lags
PAD = 4


def fock_norm_sq(f0: TestFunction, f1: TestFunction) -> float:
    """integral ( |p|^-1 |f0~|^2 + |p| |f1~|^2 ) dp; NotInDomain, before any
    transform, unless both slots have zero limits (chiral_norm_sq checks
    f1's) and f0 a zero Simpson integral."""
    if f0.left_limit != 0 or f0.right_limit != 0:
        raise NotInDomain("f0 must have zero limits")
    if abs(_simpson_value(f0.samples, f0.grid)) > TOL_CHARGE:
        raise NotInDomain("f0 must have zero integral (charge)")
    _same_grid(f0, f1)
    return chiral_norm_sq(f1) + dot(f0.samples, fock_column(f0.samples, 0, f0.grid))


@lru_cache(maxsize=64)
def _fock_kernel(grid: Grid, slot: int) -> np.ndarray:
    """K_slot = rfft(k2), n + 1 read-only floats.  W_slot weighs |f~|^2 on the
    m = PAD * n-point padded DFT grid: W_0 = dp / |p| (0 at p = 0, as f0~(0) =
    0 on the domain) and W_1 = |p| dp, each plus the Euler-Maclaurin corner of
    the even integrand's kink at p = 0, |f0~(dp)|^2 / 6 and dp^2 |f1~(0)|^2 / 6.
    k2 is 2n-periodic, k2(d) = k(|d|) for |d| <= n, with k = irfft(W_slot) on
    the m points.  As k summed over period 2n has spectrum W_slot[::2], K =
    W_slot[::2] - rfft(r), r(d) = k(n + |n - d|), and r comes from the irfft of
    W_slot's second difference, -4 sin^2(pi d / m) k(d), to full precision
    where k is small."""
    n, h = grid.n, grid.step
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
    far = np.fft.irfft(np.diff(np.pad(w, 1, mode="reflect"), 2), n=m)[n:2 * n + 1]
    far /= -4.0 * np.sin(np.pi * np.arange(n, 2 * n + 1) / m) ** 2  # k(n..2n)
    kernel = w[::2] - np.fft.rfft(np.concatenate((far[:0:-1], far[:-1]))).real
    kernel.setflags(write=False)
    return kernel


def fock_column(samples: np.ndarray, slot: int, grid: Grid) -> np.ndarray:
    """y = irfft(rfft(f) * K_slot) on 2n points, cut to n, for f's samples on
    grid: for g in the same slot, g.samples @ y is the product of g and f in
    the Fock form, corner term included.  That form convolves f, zero-padded,
    with the even k = irfft(W_slot); f and y's n points lie on 0..n-1, so
    only k's lags |d| < n enter, and the 2n-periodic k2 holds exactly those."""
    ft = np.fft.rfft(samples, n=2 * grid.n)
    ft *= _fock_kernel(grid, slot)
    return np.fft.irfft(ft, n=2 * grid.n)[:grid.n].copy()  # frees the 2n-point buffer


def chiral_norm_sq(theta: TestFunction) -> float:
    """integral |p| |theta~|^2 dp for a decaying chiral function."""
    if theta.left_limit != 0 or theta.right_limit != 0:
        raise NotInDomain("chiral norm needs zero limits")
    return dot(theta.samples, fock_column(theta.samples, 1, theta.grid))


# ---------------------------------------------------------------------------
# localization


def localization(f0: TestFunction, f1: TestFunction) -> Optional[Interval]:
    """Smallest interval holding supp f0 and supp (d f1); None for (0, const)."""
    mask = np.abs(f0.samples) > TOL_SUPP
    if not f1.is_constant():
        mask |= np.abs(derivative(f1).samples) > TOL_SUPP
    idx = np.nonzero(mask)[0]
    if idx.size == 0:
        return None
    grid = f0.grid
    lo = max(idx[0] - 1, 0)
    hi = min(idx[-1] + 1, grid.n - 1)
    return Interval(grid.x_at(lo), grid.x_at(hi))
