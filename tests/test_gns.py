import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from weylnet.errors import InvalidKey
from weylnet.gns import (
    GnsVector,
    VACUUM,
    apply_elementary,
    basis,
    non_regularity_witness,
    norm_distance,
    phi_n_apply,
    sector_inner,
    sector_trace,
)
from weylnet.registry import load_registry
from weylnet.weyl import IDENTITY, COEFF_EPS, weyl_add, weyl_mul, weyl_word

from oracles import apply_word, fold_phase, gns_expectation, phi_n_difference_defect


@lru_cache(maxsize=1)
def sp():
    return load_registry()


def plane_vec(c, n):
    space = sp()
    return space.generator("c0").scale(Fraction(c)) + space.unit_vector().scale(
        Fraction(n)
    )


def rand_plane_word(rng, n_keys=2):
    space = sp()
    out = GnsVector(())
    word = None
    for _ in range(n_keys):
        v = plane_vec(
            Fraction(int(rng.integers(-2, 3)), 2), Fraction(int(rng.integers(-3, 4)), 2)
        )
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        term = weyl_word(v, coeff)
        word = term if word is None else weyl_add(word, term)
    return word


def test_inner_orthogonality():
    assert sector_inner(VACUUM, VACUUM) == 1
    assert sector_inner(basis(1), basis(Fraction(1, 2))) == 0
    u = GnsVector([(Fraction(0), 1.0), (Fraction(1), 2j)])
    assert sector_inner(u, u) == pytest.approx(5.0)


def test_inner_raw_form_phase():
    # |c,n> = e^{icn/2}|c,0>: inner of two raw vectors is e^{ic(n'-n)/2}
    c = Fraction(3, 2)
    n, nprime = 0.7, -1.1
    u = basis(c).scale(fold_phase(c, n))
    v = basis(c).scale(fold_phase(c, nprime))
    assert sector_inner(u, v) == pytest.approx(cmath.exp(0.5j * float(c) * (nprime - n)))


def test_central_action_is_diagonal():
    for c in (Fraction(0), Fraction(2), Fraction(-5, 3)):
        for n in (0.3, -2.0):
            out = apply_elementary(0, n, basis(c))
            assert out.amps() == ((c, pytest.approx(cmath.exp(1j * n * float(c)))),)


def test_charge_action_translates():
    # W(c, 0)|0> = |c> exactly
    out = apply_elementary(Fraction(7, 4), 0.0, VACUUM)
    assert out.amps() == basis(Fraction(7, 4)).amps()


def test_composite_phase_against_two_step_oracle():
    # oracle: Weyl twist e^{-i sigma_L((c,n),(c',n'))/2} on raw |c',n'>
    # representatives, then fold every |c,n> back to e^{icn/2}|c,0>
    rng = np.random.default_rng(0)
    for _ in range(30):
        c = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        cp = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
        n = float(rng.standard_normal())
        got = apply_elementary(c, n, basis(cp))
        sigma = float(c) * 0.0 - float(cp) * n  # sigma_L((c,n),(c',0))
        raw_phase = cmath.exp(-0.5j * sigma)  # lands on raw |c+c', n>
        oracle = basis(c + cp).scale(raw_phase * fold_phase(c + cp, n))
        assert (got - oracle).norm() < 1e-12


def test_unitarity_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = GnsVector(
            (Fraction(int(rng.integers(-6, 7)), 2), complex(*rng.standard_normal(2)))
            for _ in range(3)
        )
        c = Fraction(int(rng.integers(-4, 5)), 3)
        n = float(rng.standard_normal())
        back = apply_elementary(c, n, apply_elementary(-c, -n, v))
        assert (back - v).norm() < 1e-12 * max(1.0, v.norm())


def test_phi_n_eigenrelation():
    assert phi_n_apply(VACUUM).amps() == ()
    c = Fraction(5, 2)
    out = phi_n_apply(basis(c))
    assert out.amps() == ((c, 2.5),)


def test_phi_n_first_order_convergence():
    v = GnsVector([(Fraction(1), 1.0), (Fraction(-3, 2), 0.5j), (Fraction(4), 0.25)])
    defects = [phi_n_difference_defect(v, n) for n in (1e-2, 1e-3, 1e-4)]
    for a, b in zip(defects, defects[1:]):
        assert a / b == pytest.approx(10.0, rel=0.2)


def test_trace_values():
    space = sp()
    assert sector_trace(space, IDENTITY) == 1
    assert sector_trace(space, weyl_word(plane_vec(2, 1))) == 0
    assert sector_trace(space, weyl_word(plane_vec(0, Fraction(5, 3)))) == 0
    with pytest.raises(InvalidKey):
        sector_trace(space, weyl_word(space.generator("aC")))


def test_trace_property():
    space = sp()
    rng = np.random.default_rng(2)
    for _ in range(200):
        A, B = rand_plane_word(rng), rand_plane_word(rng)
        lhs = sector_trace(space, weyl_mul(space, A, B))
        rhs = sector_trace(space, weyl_mul(space, B, A))
        assert abs(lhs - rhs) < 1e-12


def _bits(z: complex):
    return z.real.hex(), z.imag.hex()


def test_graded_trace_is_the_full_product_trace_bit_for_bit():
    """sector_trace(A, B) builds only the pairs whose charges cancel.  It must
    read the bits of sector_trace(weyl_mul(A, B)): on random plane words of
    one to four keys, on words whose products merge two pairs on the zero
    key, and on zero-key sums that cancel below COEFF_EPS and are dropped."""
    space = sp()
    rng = np.random.default_rng(11)
    pairs = [(rand_plane_word(rng, k), rand_plane_word(rng, m))
             for k, m in [(1, 1), (1, 3), (2, 2), (4, 4)] for _ in range(60)]
    l, m = plane_vec(1, Fraction(1, 2)), plane_vec(Fraction(-1, 2), 2)
    merging = weyl_add(weyl_word(l, 0.3 + 0.1j), weyl_word(-l, -1.2j))
    pairs.append((merging, weyl_add(weyl_word(-l, 0.7), weyl_word(l, 0.25 - 2j))))
    # the zero key gets 1 + b2: exactly 0, then 2**-52 < COEFF_EPS
    for b2 in (-1.0, -(1.0 - 2.0**-52)):
        A = weyl_add(weyl_word(l, 1.0), weyl_word(m, 1.0))
        pairs.append((A, weyl_add(weyl_word(-l, 1.0), weyl_word(-m, b2))))
    for A, B in pairs:
        assert _bits(sector_trace(space, A, B)) == _bits(sector_trace(space, weyl_mul(space, A, B)))
    assert 2.0**-52 < COEFF_EPS
    assert [sector_trace(space, A, B) for A, B in pairs[-2:]] == [0j, 0j]
    assert abs(sector_trace(space, *pairs[-3])) > 1.0  # two pairs merged on the zero key


def test_gns_expectation_is_charge_delta():
    space = sp()
    assert gns_expectation(space, weyl_word(plane_vec(0, Fraction(7, 2)))) == 1
    assert gns_expectation(space, weyl_word(plane_vec(1, 0))) == 0


def test_norm_distance_attains_two_at_common_charge():
    c = Fraction(1)
    n1, n2 = 2.0, 0.0
    # phase difference maximal where (n1 - n2)(c/2 + d) = pi
    target = math.pi / (n1 - n2) - float(c) / 2.0
    d = Fraction(round(target * 10**12), 10**12)
    dist = norm_distance((c, n1), (c, n2), [d])
    assert abs(dist - 2.0) < 1e-9


def test_norm_distance_probe_dependent():
    # at a probe where the phases agree the compressed distance collapses
    c = Fraction(1)
    dist = norm_distance((c, 2.0), (c, 0.0), [Fraction(-1, 2)])
    assert dist < 1e-12


def test_non_regularity_witness():
    lams = [Fraction(0), Fraction(1, 10**6), Fraction(-1, 10**9), Fraction(3)]
    vals = non_regularity_witness(Fraction(1), lams)
    assert vals[Fraction(0)] == 1
    for lam in lams[1:]:
        assert vals[lam] == 0


def test_charge_algebra_cyclicity():
    # words in {W(c, 0)} reach every basis vector exactly
    for c in (Fraction(1), Fraction(-7, 3), Fraction(22, 7)):
        assert apply_elementary(c, 0.0, VACUUM).amps() == basis(c).amps()


def test_apply_word_linear():
    space = sp()
    rng = np.random.default_rng(3)
    A, B = rand_plane_word(rng), rand_plane_word(rng)
    v = basis(Fraction(1, 2))
    lhs = apply_word(space, weyl_add(A, B), v)
    rhs = apply_word(space, A, v) + apply_word(space, B, v)
    assert (lhs - rhs).norm() < 1e-12
