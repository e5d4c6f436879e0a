from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from weylnet.chiral import (
    ChiralPair,
    dalembert,
    dalembert_inverse,
    roundtrip_error,
    sigma_decomposed,
    split_table,
)
from weylnet import chiral, funcspace, suites, symplectic
from weylnet.funcspace import (
    DEFAULT_GRID,
    Grid,
    _spectral,
    make_kink,
    pairing,
)
from weylnet.registry import load_registry
from weylnet.states import chiral_vacuum
from weylnet.suites import run_suite
from weylnet.symplectic import ZERO, SymVector, bilinear

from charge_rationals import rationals
from oracles import padded_chiral_norm_sq, sigma_infinity, split_table_by_movers

SHARED = Path(__file__).parent / "data" / "shared.registry"


@lru_cache(maxsize=1)
def sp():
    return load_registry()


GENS = ["T", "T0", "T3", "aL", "aC", "aR", "n1", "q0", "q3", "c0", "c1", "c2"]


def rand_vector(rng, n_terms=3):
    space = sp()
    v = ZERO
    for name in rng.choice(GENS, size=n_terms, replace=False):
        v = v + space.generator(name).scale(
            Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        )
    return v


@pytest.mark.parametrize("points", [4096, 1025])
def test_spectral_pair_is_exact_inverse(points):
    # both orders, on an even grid (Nyquist bin lost) and an odd one
    grid = Grid(DEFAULT_GRID.x0, DEFAULT_GRID.x1, points)
    xs, h = grid.xs(), grid.step
    g = np.exp(-((xs - 1.0) ** 2)) * (xs - 1.0)  # zero-mean decaying
    assert np.max(np.abs(_spectral(_spectral(g, h, -1), h, 1) - g)) < 1e-12
    assert np.max(np.abs(_spectral(_spectral(g, h, 1), h, -1) - (g - g[0]))) < 1e-12


@pytest.mark.parametrize("points", [1024, 4096])
def test_spectral_loses_the_nyquist_bin_both_ways(points):
    """(-1)^k holds the Nyquist bin alone.  rfft gives it real, i p makes it
    imaginary, and irfft reads only its real part: both powers return exact
    zeros, with no branch that zeroes the bin."""
    h = Grid(DEFAULT_GRID.x0, DEFAULT_GRID.x1, points).step
    alternating = np.where(np.arange(points) % 2, -1.0, 1.0)
    for power in (1, -1):
        assert not np.any(_spectral(alternating, h, power))


def test_central_element_halves():
    # (0, constant n) -> both movers constant n/2
    space = sp()
    pair = dalembert(space, space.generator("n1").scale(Fraction(3)))
    assert pair.theta_plus.left_limit == Fraction(3, 2)
    assert pair.theta_plus.right_limit == Fraction(3, 2)
    assert np.max(np.abs(pair.theta_plus.samples - 1.5)) < 1e-12
    assert np.max(np.abs(pair.theta_minus.samples - 1.5)) < 1e-12
    assert pair.c_plus == 0 and pair.c_minus == 0


def test_regularizer_charges():
    space = sp()
    pair = dalembert(space, space.generator("T"))
    assert pair.c_plus == 1 and pair.c_minus == 0
    ch = rationals(space, space.generator("T"))
    assert ch.c == pair.c_plus - pair.c_minus
    assert ch.q == pair.c_plus + pair.c_minus


def test_va_elements_are_uncharged():
    space = sp()
    pair = dalembert(space, space.generator("aC"))
    assert pair.c_plus == 0 and pair.c_minus == 0
    assert pair.theta_plus.left_limit == 0 and pair.theta_plus.right_limit == 0


def test_charge_map_additive():
    space = sp()
    rng = np.random.default_rng(2)
    v, w = rand_vector(rng), rand_vector(rng)
    pv, pw, pvw = dalembert(space, v), dalembert(space, w), dalembert(space, v + w)
    assert pvw.c_plus == pv.c_plus + pw.c_plus
    assert pvw.c_minus == pv.c_minus + pw.c_minus


def test_roundtrip_pointwise():
    space = sp()
    rng = np.random.default_rng(3)
    for _ in range(6):
        v = rand_vector(rng)
        f0a, f1a = space.assemble(v)
        f0b, f1b = dalembert_inverse(dalembert(space, v))
        assert np.max(np.abs(f0a.samples - f0b.samples)) < 1e-8
        assert np.max(np.abs(f1a.samples - f1b.samples)) < 1e-8
        # exact charges of the returned pair: integral of f0 and f1's limits
        assert f0b.left_limit == 0 and f0b.right_limit == 0
        assert f0b.integral == f0a.integral
        assert (f1b.left_limit, f1b.right_limit) == (f1a.left_limit, f1a.right_limit)


def test_roundtrip_on_regularizer():
    space = sp()
    v = space.generator("T")
    f0a, f1a = space.assemble(v)
    f0b, f1b = dalembert_inverse(dalembert(space, v))
    assert np.max(np.abs(f0a.samples - f0b.samples)) < 1e-8
    assert np.max(np.abs(f1a.samples - f1b.samples)) < 1e-8


def test_sigma_infinity_antisymmetric_and_va_zero():
    space = sp()
    pa = dalembert(space, space.generator("aC"))
    pt = dalembert(space, space.generator("T3"))
    assert sigma_infinity(pa, pt) == -sigma_infinity(pt, pa)
    assert sigma_infinity(pt, pt) == 0.0
    # recentred Va movers have zero limits: form vanishes against anything
    assert sigma_infinity(pa, pt) == 0.0


def test_sigma_decomposition():
    space = sp()
    rng = np.random.default_rng(5)
    for _ in range(15):
        v, w = rand_vector(rng), rand_vector(rng)
        lhs = space.sigma(v, w)
        rhs = sigma_decomposed(space, v, w)
        assert abs(lhs - rhs) < 1e-5, (lhs, rhs)


def test_fock_norm_chiral_identity():
    space = sp()
    rng = np.random.default_rng(6)
    for _ in range(8):
        coeffs = [Fraction(int(rng.integers(-3, 4)), 2) for _ in range(3)]
        v = ZERO
        for name, c in zip(("aL", "aC", "aR"), coeffs):
            v = v + space.generator(name).scale(c)
        if v.is_zero():
            continue
        pair = dalembert(space, v)
        lhs = space.fock_norm_sq(v)
        rhs = 2 * (padded_chiral_norm_sq(pair.theta_plus) + padded_chiral_norm_sq(pair.theta_minus))
        assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(lhs))


# --- the slot-0 movers, one antiderivative per atom ----------------------------


def _oracle_antiderivative(f0, f_c):
    """The per-vector antiderivative dalembert once took: the compact unit
    kink times f_c in closed form, plus the periodic spectral integral of the
    zero-charge remainder, pinned to 0 at the left edge."""
    step = make_kink(Fraction(0), Fraction(1), True, grid=f0.grid, form="step")
    fc = float(f_c)
    g = f0.samples - fc * step.deriv.samples
    n, h = len(g), f0.grid.step
    ft = np.fft.rfft(g)
    p = 2.0 * np.pi * np.fft.rfftfreq(n, d=h)
    out = np.zeros_like(ft)
    out[1:] = ft[1:] / (1j * p[1:])
    out[-1] = 0.0  # both grids have an even point count
    rest = np.fft.irfft(out, n=n)
    return fc * (step.samples + 0.5) + rest - rest[0]


@lru_cache(maxsize=2)
def sp_at(points):
    return load_registry(None, Grid(Fraction(-32), Fraction(32), points))


@pytest.mark.parametrize("points", [4096, 16384])
def test_dalembert_matches_the_per_vector_antiderivative(points):
    space = sp_at(points)
    names = space.generator_names()
    rng = np.random.default_rng(8)
    vectors = [space.generator(name) for name in names]
    for _ in range(30):
        v = ZERO
        for name in rng.choice(names, size=3, replace=False):
            v = v + space.generator(str(name)).scale(
                Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            )
        vectors.append(v)
    for v in vectors:
        f0, f1 = space.assemble(v)
        ch = rationals(space, v)
        cum = _oracle_antiderivative(f0, ch.c)
        pair = dalembert(space, v)
        bound = 1e-14 * float(np.max(np.abs(cum)))
        for theta, sign in ((pair.theta_plus, 1), (pair.theta_minus, -1)):
            assert np.max(np.abs(theta.samples - (f1.samples + sign * cum) / 2.0)) <= bound
            assert theta.left_limit == f1.left_limit / 2
            assert theta.right_limit == (f1.right_limit + sign * ch.c) / 2
        assert pair.c_plus == (ch.q + ch.c) / 2 and pair.c_minus == (ch.q - ch.c) / 2


def test_chiral_suite_integrates_each_slot0_atom_once(monkeypatch):
    calls = []
    spectral = funcspace._spectral

    def counted(samples, h, power):
        if power == -1:
            calls.append(len(samples))
        return spectral(samples, h, power)

    monkeypatch.setattr(funcspace, "_spectral", counted)
    space = load_registry()
    slot0 = sum(1 for atom in space.atoms if atom.slot == 0)
    assert slot0 == 9
    run_suite("chiral", 7, space=space)
    assert 0 < len(calls) <= slot0
    assert len(space._antideriv) == len(calls)


def test_space_holds_no_antiderivative_before_dalembert():
    space = load_registry()
    assert space._antideriv == {}
    space.fock_norm_sq(space.generator("aC"))
    dalembert(space, space.generator("q0"))  # slot 1 only
    assert space._antideriv == {}
    dalembert(space, space.generator("T") + space.generator("c0"))
    assert len(space._antideriv) == 2


def test_movers_take_no_derivative(monkeypatch):
    """dalembert, roundtrip_error and the chiral vacuum read the movers'
    samples, limits and charges only, so none of them differentiates a
    slot-1 atom."""
    def refused(f):
        raise AssertionError("a derivative was taken")

    monkeypatch.setattr(symplectic, "derivative", refused, raising=False)
    monkeypatch.setattr(chiral, "derivative", refused)
    space = load_registry()
    g = space.generator
    for v in (g("aC") + g("c0").scale(Fraction(3, 2)), g("T") + g("q0"), g("q0") - g("q3") + g("n1")):
        assert roundtrip_error(dalembert(space, v)) < 1e-8
    for v in (g("aC"), g("q0") - g("q3") + g("n1")):
        assert 0.0 < chiral_vacuum().key(space, v).real <= 1.0


# --- the per-atom split table ----------------------------------------------------


@lru_cache(maxsize=2)
def split_at(points):
    """The split table, and the per-vector splits of each atom pair it is
    pinned against, at `points` points on [-32, 32]."""
    space = sp_at(points)
    atoms = [SymVector([(a, 1)]) for a in range(len(space.atoms))]
    ref = np.array([[sigma_decomposed(space, u, x) for x in atoms] for u in atoms])
    pairs = [dalembert(space, u) for u in atoms]
    inf = np.array([[sigma_infinity(p, q) for q in pairs] for p in pairs])
    return np.array(split_table(space)), ref, inf


@pytest.mark.parametrize("points", [4096, 16384])
def test_split_table_matches_the_per_vector_split(points):
    table, ref, _ = split_at(points)
    assert table.shape == (len(sp_at(points).atoms),) * 2 == (16, 16)
    assert np.max(np.abs(table - ref)) <= 1e-14
    assert np.array_equal(table, -table.T)
    assert not np.any(np.diag(table))


@pytest.mark.parametrize("points", [4096, 16384])
def test_sigma_split_matches_the_per_vector_path(points):
    space = sp_at(points)
    table = split_at(points)[0]
    rng = np.random.default_rng(11)

    def combo():
        v = ZERO
        for name in rng.choice(space.generator_names(), size=2, replace=False):
            v = v + space.generator(str(name)).scale(Fraction(int(rng.integers(-3, 4)), 2))
        return v

    for _ in range(50):
        v, w = combo(), combo()
        ref = sigma_decomposed(space, v, w)
        assert abs(bilinear(table, v, w) - ref) <= 1e-13


@pytest.mark.parametrize("points", [1024, 4096, 16384])
@pytest.mark.parametrize("registry", [None, SHARED], ids=["default", "shared"])
def test_split_table_equals_the_mover_sign_formula(registry, points):
    """split_table, one loop over (slot-0, slot-1) atom pairs, equals entry by
    entry the formula over the movers' signs and limits that it replaced.
    A 0.0 there may read -0.0 here; `bilinear` skips both."""
    space = load_registry(registry, Grid(Fraction(-32), Fraction(32), points))
    assert split_table(space) == split_table_by_movers(space)


def test_split_table_compares_cross_slot_integrals_and_limits():
    space = sp_at(4096)
    table, _, inf = split_at(4096)
    slots = np.array([atom.slot for atom in space.atoms])
    same = slots[:, None] == slots[None, :]
    assert np.all(table[same] == 0.0)
    # T's slot-0 atom (c = 1) against tk0's slot-1 atom (nonzero right limit)
    names = [atom.name for atom in space.atoms]
    assert inf[names.index("T.0"), names.index("T0.1")] != 0.0
    assert np.count_nonzero((table - inf)[~same]) > 0


# --- the Fock table in the mover basis ----------------------------------------------

POOL = ["aL", "aC", "aR"]


@pytest.mark.parametrize("points", [1024, 4096])
def test_mover_table_matches_the_per_vector_movers(points):
    """Space.mover_norm_sq(v) is 2||theta_+||^2 + 2||theta_-||^2 of v's
    dalembert movers, each a padded per-vector chiral norm, for 20 pool
    vectors; its table holds 0.0 across slots and is nonzero on the pool's
    same-slot pairs."""
    space = load_registry(None, Grid(Fraction(-32), Fraction(32), points))
    atoms = [a for name in POOL for a, _ in space.generator(name).items()]
    rng = np.random.default_rng(13)
    done = 0
    while done < 20:
        v = ZERO
        for name in rng.choice(POOL, size=3, replace=False):
            v = v + space.generator(str(name)).scale(
                Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
            )
        if v.is_zero():
            continue
        done += 1
        pair = dalembert(space, v)
        ref = 2 * (padded_chiral_norm_sq(pair.theta_plus) + padded_chiral_norm_sq(pair.theta_minus))
        assert abs(space.mover_norm_sq(v) - ref) <= 1e-13 * ref
    assert space._columns == {(a, 1) for a in atoms}
    table = np.array(space._movers)
    slots = np.array([atom.slot for atom in space.atoms])
    inside = np.isin(np.arange(len(slots)), atoms)
    same = (slots[:, None] == slots[None, :]) & inside[:, None] & inside[None, :]
    assert np.count_nonzero(same) == 18 and np.all(table[same] != 0.0)
    assert np.all(table[slots[:, None] != slots[None, :]] == 0.0)


def test_fock_norm_mover_identity_takes_one_fft_per_column(monkeypatch):
    """On a fresh Space, at most 15 rffts: one of 2n points per column for
    the six pool atoms, a slot-0 atom's in each table and a slot-1 atom's
    once for both, and one n-point rfft per slot-0 antiderivative the
    mover columns read, those of the six slot-0 atoms at or below aR.0 (in
    a chiral suite run `split_table` has built them all before); no
    per-vector movers or chiral norms.  Both Fock kernels are built first,
    as an earlier test in the same process may already have built them."""
    sizes = []
    rfft = np.fft.rfft

    def counted(a, n=None, *args, **kwargs):
        sizes.append(len(a) if n is None else n)
        return rfft(a, n, *args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("per-vector path")

    space = load_registry()
    for slot in (0, 1):
        funcspace._fock_kernel(space.grid, slot)
    monkeypatch.setattr(np.fft, "rfft", counted)
    monkeypatch.setattr(suites, "dalembert", refused)
    monkeypatch.setattr(chiral, "dalembert", refused)
    monkeypatch.setattr(suites, "chiral_norm_sq", refused, raising=False)
    monkeypatch.setattr(funcspace, "chiral_norm_sq", refused)
    check = suites.CHECK_BY_NAME["fock-norm-mover-identity"]
    assert check.passes(check.measure(space, np.random.default_rng(7)))
    n = space.grid.n
    slot0 = [a for a, atom in enumerate(space.atoms) if atom.slot == 0 and a <= 10]
    assert space.atoms[10].name == "aR.0" and len(slot0) == 6 and set(space._antideriv) == set(slot0)
    assert 0 < len(sizes) <= 15 and sorted(sizes) == [n] * 6 + [2 * n] * 9 and 2 * n == 8192
    assert space._columns == {(a, k) for a in range(6, 12) for k in {space.atoms[a].slot, 1}}
