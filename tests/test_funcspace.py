import math
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylnet import errors, funcspace
from weylnet.funcspace import (
    DEFAULT_GRID,
    PAD,
    Grid,
    Interval,
    chiral_norm_sq,
    constant_function,
    derivative,
    fock_column,
    fock_norm_sq,
    hermite_gaussian,
    localization,
    make_grid_function,
    make_kink,
    pairing,
    resample,
)
from weylnet.registry import load_registry, parse_registry
from weylnet.states import chiral_vacuum

from oracles import padded_chiral_norm_sq, padded_fock_norm_sq, simpson, zero_function

G = DEFAULT_GRID


def gaussian(center=0.0, width=1.0, grid=G):
    xs = grid.xs()
    s = np.exp(-((xs - center) ** 2) / (2 * width**2))
    return make_grid_function(s, grid, Fraction(0), Fraction(0), None)


# --- constructors -----------------------------------------------------------


@pytest.mark.parametrize("x0, x1, n", [(-32, 32, 4096), (-16, 16, 16384), ("-17/3", "5/7", 1023),
                                       (0, "1/3", 8)])
def test_grid_step_fields_equal_the_formulas(x0, x1, n):
    """step_exact and step are computed once, in __post_init__, and equal the
    formulas the properties evaluated on every read."""
    g = Grid(Fraction(x0), Fraction(x1), n)
    assert type(g.step_exact) is Fraction and g.step_exact == (g.x1 - g.x0) / (g.n - 1)
    assert g.step.hex() == (float(g.x1 - g.x0) / (g.n - 1)).hex()
    assert g.x_at(n - 1) == g.x1
    assert replace(g, n=n + 1).step_exact == (g.x1 - g.x0) / n


def test_grid_equality_hash_order_and_repr_read_x0_x1_n_only():
    a = Grid(Fraction(-32), Fraction(32), 4096)
    assert a == Grid(Fraction(-32), Fraction(32), 4096) and a is not DEFAULT_GRID
    assert hash(a) == hash((Fraction(-32), Fraction(32), 4096)) == hash(DEFAULT_GRID)
    grids = [Grid(Fraction(-16), Fraction(16), 4096), Grid(Fraction(-32), Fraction(16), 1024), a,
             Grid(Fraction(-32), Fraction(32), 1024)]
    assert sorted(grids) == sorted(grids, key=lambda g: (g.x0, g.x1, g.n))
    assert repr(a) == "Grid(x0=Fraction(-32, 1), x1=Fraction(32, 1), n=4096)"
    assert [f.name for f in fields(Grid) if f.compare] == ["x0", "x1", "n"]


def test_grid_basics():
    assert G.n == 4096
    assert G.x_at(0) == Fraction(-32)
    assert G.x_at(G.n - 1) == Fraction(32)
    assert math.isclose(G.step, 64 / 4095)
    with pytest.raises(errors.BadGrid):
        Grid(Fraction(1), Fraction(0), 100)


def test_edge_validation():
    s = np.zeros(G.n)
    s[0] = 1e-6
    with pytest.raises(errors.EdgeMismatch):
        make_grid_function(s, G, Fraction(0), Fraction(0))
    s[0] = 0.0
    s[-1] = 1e-6
    with pytest.raises(errors.EdgeMismatch):
        make_grid_function(s, G, Fraction(0), Fraction(0))


def test_kink_limits_and_monotone():
    for compact in (True, False):
        k = make_kink(Fraction(0), Fraction(1), compact)
        assert k.left_limit == Fraction(-1, 2)
        assert k.right_limit == Fraction(1, 2)
        assert abs(k.samples[0] + 0.5) <= 1e-9
        assert abs(k.samples[-1] - 0.5) <= 1e-9
        assert np.all(np.diff(k.samples) >= -1e-15)


def test_kink_width_guard():
    with pytest.raises(errors.BadGrid):
        make_kink(Fraction(0), Fraction(1, 100), True)


@pytest.mark.parametrize("center", [Fraction(-32), Fraction(32), Fraction(100), Fraction(-1, 10**30) - 32])
@pytest.mark.parametrize("form", ["step", "deriv"])
def test_arctan_kink_center_must_lie_inside_the_window(center, form):
    """On the edge the rescaling divided by arctan(0); outside it, the far
    edge missed its limit.  Inside, both edges read the limits exactly."""
    with pytest.raises(errors.BadGrid, match="arctan kink center .* not inside the window"):
        make_kink(center, Fraction(1), False, form=form)
    k = make_kink(Fraction(63, 2), Fraction(1), False)
    assert (k.samples[0], k.samples[-1]) == (-0.5, 0.5)


def test_compact_kink_support():
    k = make_kink(Fraction(3), Fraction(1), True)
    xs = G.xs()
    assert np.all(k.samples[xs <= 2.0] == -0.5)
    assert np.all(k.samples[xs >= 4.0] == 0.5)


def test_compact_kink_support_must_fit_the_window():
    # a cut support was renormalized, and one outside the window divided by 0
    for center in (Fraction(63, 2), Fraction(-63, 2), Fraction(40)):
        for form in ("step", "deriv"):
            with pytest.raises(errors.BadGrid, match="leaves the window"):
                make_kink(center, Fraction(1), True, form=form)
    d = make_kink(Fraction(31), Fraction(1), True, form="deriv")  # ends at the edge
    assert abs(simpson(d) - 1.0) < 1e-14


def _full_grid_compact_step(center, width, grid):
    """The compact step evaluated on every sample: the antiderivative of
    (1-u^2)^8 at the clipped u, then the limits written over |u| >= 1."""
    u = (grid.xs() - float(center)) / float(width)
    uc = np.clip(u, -1.0, 1.0)
    val = np.zeros_like(uc)
    for k in range(9):
        coeff = math.comb(8, k) * (-1) ** k / (2 * k + 1)
        val += coeff * (uc ** (2 * k + 1) - (-1.0) ** (2 * k + 1))
    s = float(Fraction(109395, 65536)) * val - 0.5
    s[u >= 1.0] = 0.5
    s[u <= -1.0] = -0.5
    return s


@pytest.mark.parametrize("points", [1024, 4096, 16384])
def test_compact_step_on_its_support_is_the_full_grid_formula(points):
    """The compact step evaluates its polynomial only where |u| < 1: the
    same bits as the full-grid formula, for each width and for supports
    that end at either window edge."""
    grid = Grid(Fraction(-32), Fraction(32), points)
    shapes = [(0, Fraction(1, 2)), (0, 1), (0, 2), (Fraction(3, 2), Fraction(1, 2)),
              (3, 1), (31, 1), (-31, 1), (Fraction(-29, 3), 2)]
    for center, width in shapes:
        step = make_kink(Fraction(center), Fraction(width), True, grid, "step")
        assert np.array_equal(step.samples, _full_grid_compact_step(center, width, grid)), (
            center, width)


def test_registry_derivative_kink_is_its_step_twins_deriv():
    """dtka, dtk0 and dtk3 follow a step with the same center, width and
    compact: each is that step's deriv, with the samples a standalone
    make_kink(form="deriv") builds."""
    fns = {atom.name: atom.fn for atom in load_registry().atoms}
    for pair, center, compact in (("T", 0, False), ("T0", 0, True), ("T3", 3, True)):
        d, step = fns[f"{pair}.0"], fns[f"{pair}.1"]
        assert d is step.deriv
        want = make_kink(Fraction(center), Fraction(1), compact, form="deriv")
        assert np.array_equal(d.samples, want.samples)
        assert (d.left_limit, d.right_limit, d.integral) == (0, 0, 1)


def test_registry_derivative_kink_without_an_earlier_twin_builds_on_its_own():
    """A derivative kink declared before its step, or with another width or
    compact, is built by make_kink and is no step's deriv."""
    text = (
        "fn d kink center=0 width=1 form=deriv\n"
        "fn s kink center=0 width=1 form=step\n"
        "fn w kink center=0 width=2 form=deriv\n"
        "fn c kink center=0 width=1 compact=false form=deriv\n"
        "pair P f0=d f1=s\npair W f0=w f1=0\npair C f0=c f1=0\n"
    )
    fns = {atom.name: atom.fn for atom in parse_registry(text).atoms}
    for name, width, compact in (("P.0", 1, True), ("W.0", 2, True), ("C.0", 1, False)):
        assert fns[name] is not fns["P.1"].deriv
        want = make_kink(Fraction(0), Fraction(width), compact, form="deriv")
        assert np.array_equal(fns[name].samples, want.samples)


def test_kink_deriv_charge_is_snapped():
    for compact in (True, False):
        d = make_kink(Fraction(0), Fraction(1), compact, form="deriv")
        assert d.integral == 1
        assert abs(simpson(d) - 1.0) < 1e-14


def test_noncompact_deriv_matches_scaled_lorentzian():
    # oracle: the arctan profile's true derivative, including the window
    # rescale factor; agreement must be pointwise tight away from the clamp
    d = make_kink(Fraction(0), Fraction(1), False, form="deriv")
    xs = G.xs()
    scale = 0.5 / np.arctan(32.0)
    oracle = scale / (1.0 + xs**2)
    # the snap rescales by ~1e-9 at most
    assert np.max(np.abs(d.samples - oracle)) < 1e-6
    # and it stays close to the ideal 1/(pi(1+x^2)) up to the known scale
    ideal = 1.0 / (np.pi * (1.0 + xs**2))
    assert np.max(np.abs(d.samples - ideal / (np.pi * scale) * np.pi * scale)) < 1.0


def test_hermite_normalization_and_orthogonality():
    h0 = hermite_gaussian(0, Fraction(0))
    h1 = hermite_gaussian(1, Fraction(0))
    h4 = hermite_gaussian(4, Fraction(0))
    assert abs(pairing(h0, h0) - 1.0) < 1e-12
    assert abs(pairing(h1, h1) - 1.0) < 1e-12
    assert abs(pairing(h4, h4) - 1.0) < 1e-12
    assert abs(pairing(h0, h4)) < 1e-12
    assert h1.integral == 0
    # even-order integral is left undeclared
    assert h4.integral is None


# --- quadrature -------------------------------------------------------------


def test_simpson_gaussian_value():
    g = gaussian()
    assert abs(simpson(g) - math.sqrt(2 * math.pi)) < 1e-12


def test_simpson_exact_on_declared_kinks():
    d = make_kink(Fraction(1, 2), Fraction(2), True, form="deriv")
    assert abs(simpson(d) - 1.0) < 1e-13


def test_pairing_divergent_tails():
    k = make_kink(Fraction(0), Fraction(1), True)
    with pytest.raises(errors.DivergentTail):
        pairing(k, k)
    # opposite-side tails are fine: kink against a bump
    b = make_kink(Fraction(0), Fraction(1), True, form="deriv")
    val = pairing(k, b)
    # odd*even integrand: zero by symmetry
    assert abs(val) < 1e-12


def test_pairing_mixed_grids():
    # mixed grids are an error; resampling onto one grid is the supported path
    g1 = gaussian()
    fine = Grid(Fraction(-32), Fraction(32), 8192)
    g2 = gaussian(grid=fine)
    with pytest.raises(errors.BadGrid):
        pairing(g1, g2)
    with pytest.raises(errors.BadGrid):
        fock_norm_sq(zero_function(), g2)
    ref = pairing(g1, g1)
    assert abs(pairing(g1, resample(g2, G)) - ref) < 1e-8


# --- derivative ---------------------------------------------------------------


def test_derivative_of_gaussian():
    g = gaussian()
    d = derivative(g)
    xs = G.xs()
    oracle = -xs * np.exp(-(xs**2) / 2)
    assert np.max(np.abs(d.samples - oracle)) < 1e-7


def test_derivative_fourth_order_scaling():
    coarse = Grid(Fraction(-32), Fraction(32), 2048)
    e_fine = np.max(
        np.abs(derivative(gaussian()).samples + G.xs() * np.exp(-(G.xs() ** 2) / 2))
    )
    e_coarse = np.max(
        np.abs(
            derivative(gaussian(grid=coarse)).samples
            + coarse.xs() * np.exp(-(coarse.xs() ** 2) / 2)
        )
    )
    assert e_coarse / e_fine > 8.0  # ~16 for a clean 4th-order method


def _stencil_kink(points):
    """The compact unit kink step on `points` points with its closed-form
    derivative dropped, so that derivative() runs the stencil."""
    grid = Grid(Fraction(-32), Fraction(32), points)
    step = make_kink(Fraction(0), Fraction(1), True, grid=grid)
    return funcspace.TestFunction(grid, step.samples, Fraction(-1, 2), Fraction(1, 2), None)


@pytest.mark.parametrize("points", [1024, 4096, 16384])
def test_stencil_reads_a_flat_edge_as_exactly_flat(points):
    """The stencil runs on samples extended by the constant tails, so the
    two edge samples at each end of a flat tail differentiate to exactly 0:
    one-sided edge stencils left 1.8e-15 to 2.8e-14 there."""
    d = derivative(_stencil_kink(points)).samples
    assert d[:2].tolist() == [0.0, 0.0] and d[-2:].tolist() == [0.0, 0.0]


def test_stencil_kink_localizes_to_its_support_on_a_million_points():
    """One-sided edge stencils' rounding residue grows as 1/h and crosses
    TOL_SUPP on flat tails at 2^20 points: the kink localized to the whole
    window.  Now it reaches past [-1, 1] only by the last sample inside the
    support, the stencil's two and the one sample localization pads with."""
    f1 = _stencil_kink(2**20)
    loc = localization(zero_function(f1.grid), f1)
    three = 3 * f1.grid.step_exact
    assert Interval(-1 - three, 1 + three).contains(loc)
    assert Interval(loc.a, loc.b).contains(Interval(Fraction(-1), Fraction(1)))


# --- Fourier norms ----------------------------------------------------------


def _fock_oracle(f0_builder, f1_builder):
    """Independent oracle: denser grid and heavier zero padding."""
    dense = Grid(Fraction(-32), Fraction(32), 8192)
    return padded_fock_norm_sq(f0_builder(dense), f1_builder(dense), pad=16)


def test_fock_norm_against_dense_oracle():
    def f0(grid):
        return hermite_gaussian(1, Fraction(0), grid)

    def f1(grid):
        return hermite_gaussian(2, Fraction(2), grid)

    v = fock_norm_sq(f0(G), f1(G))
    ref = _fock_oracle(f0, f1)
    assert abs(v - ref) < 1e-6 * max(1.0, abs(ref))


def test_fock_norm_gaussian_closed_form():
    # f1 = exp(-x^2/2), f0 = 0: integral |p| |f1~|^2 dp with the unitary
    # convention is 2 * integral_0^inf p exp(-p^2) dp = 1
    f1 = gaussian()
    v = fock_norm_sq(zero_function(), f1)
    assert abs(v - 1.0) < 1e-6


def test_fock_norm_domain_checks():
    k = make_kink(Fraction(0), Fraction(1), True)
    with pytest.raises(errors.NotInDomain):
        fock_norm_sq(zero_function(), k)  # f1 has nonzero limits
    d = make_kink(Fraction(0), Fraction(1), True, form="deriv")
    with pytest.raises(errors.NotInDomain):
        fock_norm_sq(d, zero_function())  # f0 carries charge 1


def test_chiral_norm_matches_fock_slot1():
    # chiral_norm_sq reads the slot-1 Fock column; the padded per-vector sum
    # builds its weights on its own
    f1 = hermite_gaussian(3, Fraction(1))
    assert abs(chiral_norm_sq(f1) - padded_chiral_norm_sq(f1)) < 1e-12


def test_every_fock_quantity_reads_the_one_kernel(monkeypatch):
    """A slot-1 kernel scaled by 1.001 moves chiral_norm_sq, fock_norm_sq, a
    chiral_vacuum key and a fresh Space's Fock norm: there is no second
    Fock path for any of them to take."""
    f1 = hermite_gaussian(3, Fraction(1))

    def values():
        space = load_registry()  # a fresh Space: its Fock table is empty
        v = space.generator("aC")  # a slot-1 atom, and movers on both sides
        return [chiral_norm_sq(f1), fock_norm_sq(zero_function(), f1),
                chiral_vacuum().key(space, v), space.fock_norm_sq(v)]

    before = values()
    kernel = funcspace._fock_kernel
    monkeypatch.setattr(funcspace, "_fock_kernel",
                        lambda grid, slot: kernel(grid, slot) * (1.001 if slot == 1 else 1.0))
    after = values()
    assert all(a != b for a, b in zip(after, before)), (before, after)
    assert after[0] == pytest.approx(1.001 * before[0], rel=1e-12)


def _padded_weights(grid, slot):
    """W_slot on the PAD * n padded grid, corner term included, scaled for irfft."""
    n, h = grid.n, grid.step
    m = PAD * n
    w = 2.0 * np.pi * np.fft.rfftfreq(m, d=h)
    dp = 2.0 * np.pi / (m * h)
    if slot == 0:
        np.divide(dp, w[1:], out=w[1:])
        w[1] += 1.0 / 12.0
    else:
        w *= dp
        w[0] += dp**2 / 6.0
    return w * (m * h * h / (2.0 * np.pi))


def _padded_column(f, slot):
    """The Fock column as one transform pair on the padded grid: the oracle
    for the 2n-point convolution, which shares no transform length with it."""
    m = PAD * f.grid.n
    ft = np.fft.rfft(f.samples, n=m) * _padded_weights(f.grid, slot)
    return np.fft.irfft(ft, n=m)[:f.grid.n]


def _worst_atom_pair(points):
    """max |Q(a, b) - Q_pad(a, b)| / sqrt(Q_pad(a, a) Q_pad(b, b)) over the
    same-slot atom pairs of the default registry on a `points` grid."""
    space = load_registry(None, Grid(Fraction(-32), Fraction(32), points))
    worst = 0.0
    for slot in (0, 1):
        fns = [atom.fn for atom in space.atoms if atom.slot == slot]
        s = np.array([f.samples for f in fns])
        q = s @ np.array([fock_column(f.samples, slot, f.grid) for f in fns]).T
        want = s @ np.array([_padded_column(f, slot) for f in fns]).T
        scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
        worst = max(worst, float(np.max(np.abs(q - want) / scale)))
    return worst


@pytest.mark.parametrize("points", [1024, 4096, 16384])
def test_fock_columns_match_the_padded_transform_on_every_atom_pair(points):
    assert _worst_atom_pair(points) <= 1e-13


@pytest.mark.parametrize("slot", [0, 1])
def test_fock_kernel_is_the_even_wrap_of_the_padded_kernel(slot):
    """k2 holds the padded kernel's lags |d| <= n on 2n points: its spectrum
    is real, and it is the kernel fock_column reads."""
    n = G.n
    k = np.fft.irfft(_padded_weights(G, slot), n=PAD * n)
    k2 = np.concatenate((k[:n + 1], k[n - 1:0:-1]))
    spectrum = np.fft.rfft(k2)
    scale = np.max(np.abs(spectrum))
    assert np.max(np.abs(spectrum.imag)) <= 1e-15 * scale
    assert np.max(np.abs(spectrum.real - funcspace._fock_kernel(G, slot))) <= 1e-14 * scale


def test_a_one_sided_fock_kernel_fails_the_atom_pairs(monkeypatch):
    """Zeroing the kernel's negative lags (k2[n + 1:] = 0) drops half of
    every convolution sum: the pair check must see it."""
    kernel = funcspace._fock_kernel

    def one_sided(grid, slot):
        k2 = np.fft.irfft(kernel(grid, slot), n=2 * grid.n)
        k2[grid.n + 1:] = 0.0
        return np.fft.rfft(k2)

    monkeypatch.setattr(funcspace, "_fock_kernel", one_sided)
    assert _worst_atom_pair(1024) > 1e-3


# --- localization ------------------------------------------------------------


def test_localization_bump_interval():
    b = make_kink(Fraction(3, 2), Fraction(1, 2), True, form="deriv")
    loc = localization(b, zero_function())
    assert loc is not None
    assert float(loc.a) > 0.9 and float(loc.b) < 2.1
    assert Interval(Fraction(1, 2), Fraction(5, 2)).contains(loc)


def test_localization_kink_slot1():
    k = make_kink(Fraction(0), Fraction(1), True)
    loc = localization(zero_function(), k)
    assert loc is not None
    assert float(loc.a) > -1.5 and float(loc.b) < 1.5


def test_localization_constant_is_empty():
    loc = localization(zero_function(), constant_function(Fraction(1)))
    assert loc is None
    assert Interval(Fraction(0), Fraction(1)).contains(None)


def test_interval_relations():
    a = Interval(Fraction(0), Fraction(1))
    b = Interval(Fraction(2), Fraction(3))
    assert a.disjoint(b) and a.left_of(b) and not b.left_of(a)
    assert not a.disjoint(Interval(Fraction(1, 2), Fraction(4)))


# --- property tests -----------------------------------------------------------

coeffs = st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False)


@settings(max_examples=20, deadline=None)
@given(a=coeffs, b=coeffs)
def test_pairing_bilinear(a, b):
    f = hermite_gaussian(0, Fraction(0))
    g = hermite_gaussian(2, Fraction(1))
    h = hermite_gaussian(1, Fraction(-1))
    lhs = pairing(
        make_grid_function(a * f.samples + b * g.samples, G, Fraction(0), Fraction(0)),
        h,
    )
    rhs = a * pairing(f, h) + b * pairing(g, h)
    assert abs(lhs - rhs) < 1e-10


@settings(max_examples=15, deadline=None)
@given(c=st.integers(min_value=-20, max_value=20))
def test_simpson_translation_invariance(c):
    # translating a well-localized bump inside the window keeps its charge
    center = Fraction(c, 2)
    if abs(float(center)) > 10:
        center = Fraction(c, 4)
    d = make_kink(center, Fraction(1), True, form="deriv")
    assert abs(simpson(d) - 1.0) < 1e-13


def test_resample_roundtrip():
    g = gaussian()
    fine = Grid(Fraction(-32), Fraction(32), 8192)
    up = resample(g, fine)
    back = resample(up, G)
    assert np.max(np.abs(back.samples - g.samples)) < 1e-8
