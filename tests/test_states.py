import math
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from weylnet import funcspace
from weylnet.chiral import dalembert
from weylnet.errors import InvalidKey, NotInDomain
from weylnet.funcspace import Grid
from weylnet.registry import load_registry
from weylnet.states import (
    STATES,
    eval_state,
    field_f,
    fock_a,
    gram_psd,
    hermiticity_defect,
    nonregular_elementary,
    product_p,
    regular_substitute_probe,
    state_coincidence_check,
)
from weylnet.symplectic import ZERO, Space
from weylnet.weyl import (
    IDENTITY,
    weyl_add,
    weyl_mul,
    weyl_scale,
    weyl_star,
    weyl_word,
)

from charge_rationals import rationals
from oracles import full_gram, padded_chiral_norm_sq


@lru_cache(maxsize=1)
def sp():
    return load_registry()


GENS = ["T", "T3", "aL", "aC", "aR", "n1", "q0", "q3", "c0", "c1", "c2"]
VA_GENS = ["aL", "aC", "aR"]


def rand_vector(rng, pool=GENS, n_terms=3):
    space = sp()
    v = ZERO
    for name in rng.choice(pool, size=min(n_terms, len(pool)), replace=False):
        v = v + space.generator(name).scale(
            Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))
        )
    return v


def rand_word(rng, pool=GENS, n_keys=2):
    out = weyl_word(rand_vector(rng, pool))
    for _ in range(n_keys - 1):
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        out = weyl_add(out, weyl_word(rand_vector(rng, pool), coeff))
    return out


def all_specs():
    return {name: build(sp()) for name, build in STATES.items()}


def test_normalization():
    space = sp()
    for name, spec in all_specs().items():
        assert eval_state(space, spec, IDENTITY) == pytest.approx(1.0), name


def test_fock_a_matches_norm_oracle():
    space = sp()
    v = rand_vector(np.random.default_rng(0), VA_GENS)
    val = eval_state(space, fock_a(), weyl_word(v))
    assert val == pytest.approx(math.exp(-0.25 * space.fock_norm_sq(v)))


def test_fock_a_rejects_charged_keys():
    space = sp()
    with pytest.raises(NotInDomain):
        eval_state(space, fock_a(), weyl_word(space.generator("T")))
    with pytest.raises(NotInDomain):
        eval_state(space, fock_a(), weyl_word(space.generator("n1")))


def test_elementary_deltas_and_domain():
    space = sp()
    spec = nonregular_elementary()
    cp = space.generator("c0")  # charge 1 density
    nv = space.generator("n1")
    assert eval_state(space, spec, weyl_word(cp)) == 0
    assert eval_state(space, spec, weyl_word(cp + nv.scale(Fraction(2)))) == 0
    assert eval_state(space, spec, weyl_word(nv.scale(Fraction(5, 3)))) == 1
    with pytest.raises(InvalidKey):
        eval_state(space, spec, weyl_word(space.generator("aC")))


def test_elementary_state_not_faithful():
    # omega((I - W(0,n))(I - W(0,n))*) = 0: the central direction is
    # invisible, so the state has a nontrivial left kernel
    space = sp()
    spec = nonregular_elementary()
    for n in (Fraction(1), Fraction(5, 3), Fraction(-2)):
        A = weyl_add(IDENTITY, weyl_scale(weyl_word(space.unit_vector().scale(n)), -1))
        val = eval_state(space, spec, weyl_mul(space, A, weyl_star(A)))
        assert abs(val) < 1e-12


def test_field_state_kills_charged_keys():
    space = sp()
    spec = field_f(space.generator("T"))
    assert eval_state(space, spec, weyl_word(space.generator("c0"))) == 0
    assert eval_state(space, spec, weyl_word(space.generator("q0"))) == 0
    assert eval_state(space, spec, weyl_word(space.generator("T"))) == 0


def test_field_state_central_invariance():
    # the central direction contributes nothing: omega(W(v + n e)) = omega(W(v))
    space = sp()
    spec = field_f(space.generator("T"))
    v = space.generator("aC")
    shifted = v + space.unit_vector().scale(Fraction(7, 2))
    assert eval_state(space, spec, weyl_word(v)) == eval_state(
        space, spec, weyl_word(shifted)
    )


def test_field_state_regulator_independent():
    # on zero-charge keys the subtracted part is F_inf * e for every T:
    # the values agree exactly
    space = sp()
    rng = np.random.default_rng(2)
    specs = [field_f(space.generator(n)) for n in ("T", "T3")]
    for _ in range(8):
        v = rand_vector(rng, ["aL", "aC", "aR", "n1"])
        vals = [eval_state(space, s, weyl_word(v)) for s in specs]
        assert vals[0] == vals[1]


def test_hermiticity_of_true_states():
    space = sp()
    rng = np.random.default_rng(3)
    for name, spec in all_specs().items():
        pool = VA_GENS if name == "fock_a" else GENS
        if name == "nonregular_elementary":
            pool = ["c0", "c1", "n1"]
        words = [rand_word(rng, pool) for _ in range(6)]
        assert hermiticity_defect(space, spec, words) < 1e-10, name


def test_cauchy_schwarz():
    space = sp()
    spec = field_f(sp().generator("T"))
    rng = np.random.default_rng(4)
    for _ in range(8):
        A, B = rand_word(rng), rand_word(rng)
        ab = eval_state(space, spec, weyl_mul(space, weyl_star(A), B))
        aa = eval_state(space, spec, weyl_mul(space, weyl_star(A), A))
        bb = eval_state(space, spec, weyl_mul(space, weyl_star(B), B))
        assert abs(ab) ** 2 <= aa.real * bb.real + 1e-10


@pytest.mark.parametrize("name", sorted(STATES))
def test_gram_psd(name):
    space = sp()
    spec = all_specs()[name]
    rng = np.random.default_rng(5)
    pool = GENS
    if name == "fock_a":
        pool = VA_GENS
    elif name == "nonregular_elementary":
        pool = ["c0", "c1", "n1"]
    words = [IDENTITY] + [rand_word(rng, pool) for _ in range(5)]
    M, min_eig = gram_psd(space, spec, words)
    norm = np.linalg.norm(M, 2)
    assert np.max(np.abs(M - M.conj().T)) < 1e-10
    assert min_eig >= -1e-8 * max(1.0, norm)


@pytest.mark.parametrize("name", ["field_f", "product_p", "chiral_vacuum"])
def test_graded_gram_is_the_full_product_gram_bit_for_bit(name):
    """gram_psd builds, for a delta state, only the terms of w_i* w_j whose
    F_c and F_q vanish.  Its matrix must hold the bytes of the full-product
    Gram, with IDENTITY, repeated words, words of neutral keys and words whose
    keys differ only in the central direction among the words."""
    space = sp()
    state = STATES[name](space)
    assert state.delta
    rng = np.random.default_rng(8)
    words = [IDENTITY] + [rand_word(rng, n_keys=3) for _ in range(4)] + [rand_word(rng, VA_GENS)]
    words += [words[2], weyl_add(words[3], IDENTITY),
              weyl_word(space.unit_vector().scale(Fraction(3, 2)), 0.5j)]
    M, _ = gram_psd(space, state, words)
    assert M.tobytes() == full_gram(space, state, words).tobytes()


def test_only_the_delta_kinds_are_graded():
    space = sp()
    delta = {name: STATES[name](space).delta for name in STATES}
    assert delta == {"fock_a": False, "nonregular_elementary": False, "field_f": True,
                     "product_p": True, "chiral_vacuum": True}
    assert not product_p(space.generator("T"), regular_substitute=True).delta


def test_coincidence_dual_path():
    space = sp()
    rng = np.random.default_rng(6)
    words = [rand_word(rng) for _ in range(10)]
    words += [weyl_mul(space, rand_word(rng), rand_word(rng)) for _ in range(5)]
    assert state_coincidence_check(space, space.generator("T"), words) < 1e-10


def test_regular_substitute_breaks_hermiticity():
    space = sp()
    violation = regular_substitute_probe(space, space.generator("T"))
    assert violation > 1e-6


def test_chiral_vacuum_matches_field_state():
    # same functional computed through the mover decomposition: the two Fock
    # exponents agree to quadrature accuracy
    space = sp()
    specs = all_specs()
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = rand_vector(rng, ["aL", "aC", "aR", "n1"])
        a = eval_state(space, specs["chiral_vacuum"], weyl_word(v))
        b = eval_state(space, specs["field_f"], weyl_word(v))
        assert abs(a - b) < 1e-4 * max(abs(a), abs(b), 1e-3)


def test_chiral_vacuum_kills_chirally_charged_keys():
    space = sp()
    spec = all_specs()["chiral_vacuum"]
    assert eval_state(space, spec, weyl_word(space.generator("T"))) == 0
    assert eval_state(space, spec, weyl_word(space.generator("q0"))) == 0


def test_eval_is_linear():
    space = sp()
    spec = field_f(space.generator("T"))
    rng = np.random.default_rng(8)
    A, B = rand_word(rng), rand_word(rng)
    z = 0.7 - 0.3j
    lhs = eval_state(space, spec, weyl_add(weyl_scale(A, z), B))
    rhs = z * eval_state(space, spec, A) + eval_state(space, spec, B)
    assert abs(lhs - rhs) < 1e-12


# -- the parent formulas: every norm computed, then multiplied by the delta ----


def _old_fock_factor(space, v):
    return 1.0 if v.is_zero() else math.exp(-0.25 * space.fock_norm_sq(v))


def _old_field_f(T):
    def key(space, v):
        ch = rationals(space, v)
        if ch.c != 0 or ch.q != 0:
            return 0j
        return complex(_old_fock_factor(space, space.psi_T(v, T).tangent))

    return key


def _old_product_p(T, regular_substitute=False):
    def key(space, v):
        ch = rationals(space, v)
        tch = rationals(space, T)
        a = ch.c / tch.c
        b = ch.q / tch.q
        l_vec = space.slot_part(T, 0).scale(a) + space.slot_part(T, 1).scale(b)
        h_vec = v - l_vec
        phase = complex(np.exp(0.5j * space.sigma(h_vec, l_vec)))
        h_center, _ = space.split_off_center(h_vec)
        omega_h = _old_fock_factor(space, h_center)
        if regular_substitute:
            omega_l = math.exp(-(float(a) ** 2 + float(b) ** 2) / 4.0)
        else:
            omega_l = 1.0 if (a == 0 and b == 0) else 0.0
        return phase * omega_h * omega_l

    return key


def _old_chiral_vacuum(space, v):
    pair = dalembert(space, v)
    if pair.c_plus != 0 or pair.c_minus != 0:
        return 0j
    centred = v - space.unit_vector().scale(rationals(space, v).inf)
    return complex(math.exp(-0.25 * space.mover_norm_sq(centred)))


def _oracle_keys(space):
    """Charged and zero-charge keys, W[q0 - T0], the zero vector, and the
    negation of each, every key followed by its negation."""
    g = space.generator
    neutral = [g("aL"), g("aC"), g("aR"), g("n1"), g("q0") - g("q3"),
               g("c1") - g("c0"), g("T") - g("T3"), g("T0") - g("c0") - g("q0")]
    rng = np.random.default_rng(11)
    keys = [ZERO, g("q0") - g("T0")]
    for _ in range(6):
        keys.append(rand_vector(rng))
        picks = rng.choice(len(neutral), size=3, replace=False)
        v = ZERO
        for i in picks:
            v = v + neutral[i].scale(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))
        keys.append(v)
    out = []
    for v in keys:
        out += [v, -v]
    return out


def test_keys_equal_the_compute_then_multiply_formulas():
    space = load_registry()  # a fresh Fock table, filled in key order
    T = space.generator("T")
    keys = _oracle_keys(space)
    charged = [v for v in keys if rationals(space, v).c != 0 or rationals(space, v).q != 0]
    assert 0 < len(charged) < len(keys)
    pairs = [
        (field_f(T).value, _old_field_f(T)),
        (product_p(T).value, _old_product_p(T)),
        (product_p(T, regular_substitute=True).value, _old_product_p(T, True)),
        (STATES["chiral_vacuum"](space).value, _old_chiral_vacuum),
    ]
    for new, old in pairs:
        for v in keys:
            assert new(space, v) == old(space, v), v
    # the substitute weight is nonzero on charged keys, so they still run quadrature
    sub = product_p(T, regular_substitute=True).value
    assert any(sub(space, v) != 0 for v in charged)


@pytest.mark.parametrize("points", [1024, 4096, 16384])
def test_chiral_vacuum_is_the_padded_norm_of_the_recentred_movers(points):
    """On each charge-free oracle key the chiral vacuum, read from the Fock
    table in the mover basis, is exp(-||theta_+ - L/2||^2 / 2 - ||theta_- -
    L/2||^2 / 2) of v's dalembert movers, L the mean limit, each norm a
    padded per-vector sum; 0 on the charged keys."""
    space = load_registry(None, Grid(Fraction(-32), Fraction(32), points))
    state = STATES["chiral_vacuum"](space)
    read = 0
    for v in _oracle_keys(space):
        pair = dalembert(space, v)
        if pair.c_plus != 0 or pair.c_minus != 0:
            assert state.value(space, v) == 0j
            continue
        half = float(rationals(space, v).inf) / 2.0
        total = sum(padded_chiral_norm_sq(funcspace.TestFunction(theta.grid, theta.samples - half,
                                                                 Fraction(0), Fraction(0)))
                    for theta in (pair.theta_plus, pair.theta_minus))
        want = math.exp(-0.5 * total)
        got = state.value(space, v)
        assert got.imag == 0.0 and abs(got.real - want) <= 1e-12 * want, v
        read += total > 1.0
    assert read >= 10


def test_delta_keys_build_no_charges(monkeypatch):
    """field_f and product_p read the charge delta, the charge part and the
    central constant from the integer charges: every Charges a value reads is
    four ints, and on charged vectors the delta states return 0 from those
    integers alone, building no charge part and no Fock factor."""
    space = load_registry()
    T = space.generator("T")
    keys = _oracle_keys(space)
    read = []
    charges = Space.charges

    def recorded(self, v):
        ch = charges(self, v)
        read.append(ch)
        return ch

    monkeypatch.setattr(Space, "charges", recorded)
    for value in (field_f(T).value, product_p(T).value,
                  product_p(T, regular_substitute=True).value):
        for v in keys:
            value(space, v)
    assert read and all(type(x) is int for ch in read for x in ch)

    charged = [v for v in keys if rationals(space, v).c != 0 or rationals(space, v).q != 0]
    assert charged

    def refused(*args, **kwargs):
        raise AssertionError("a delta key read past the charge delta")

    monkeypatch.setattr(Space, "charge_part", refused)
    monkeypatch.setattr(Space, "fock_factor", refused)
    for value in (field_f(T).value, product_p(T).value):
        for v in charged:
            assert value(space, v) == 0j


def test_value_alone_tests_the_charge_delta():
    """For every delta kind, value is 0 on each charged oracle key without
    reading the key, and is the key itself on each charge-free one."""
    space = load_registry()
    keys = _oracle_keys(space)
    charged = [v for v in keys if rationals(space, v).c != 0 or rationals(space, v).q != 0]
    assert charged

    def refused(space, v):
        raise AssertionError("a delta state read its key on a charged vector")

    delta_states = [s for s in (build(space) for build in STATES.values()) if s.delta]
    assert delta_states
    for state in delta_states:
        guarded = replace(state, key=refused)
        for v in charged:
            assert guarded.value(space, v) == 0j
        for v in keys:
            if v not in charged:
                assert state.value(space, v) == state.key(space, v)


def _count_norm_calls(monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(Space, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("fock_norm_sq", "mover_norm_sq"):
        monkeypatch.setattr(Space, name, counted(name))
    return calls


def test_charged_keys_run_no_quadrature(monkeypatch):
    space = load_registry()
    T = space.generator("T")
    calls = _count_norm_calls(monkeypatch)
    values = [product_p(T).value, STATES["chiral_vacuum"](space).value]
    g = space.generator
    for v in (g("T"), g("q0"), g("c0"), g("aC") + g("c1"), g("q0") - g("T0"), -g("T3")):
        for value in values:
            assert value(space, v) == 0
    assert calls == []
    # a zero-charge key does run them
    for value in values:
        value(space, g("aC") + g("q0") - g("q3"))
    assert {"fock_norm_sq", "mover_norm_sq"} <= set(calls)


def test_fock_factor_is_the_norm_exponential_for_either_sign():
    space = load_registry()
    rng = np.random.default_rng(12)
    for _ in range(6):
        v = rand_vector(rng, VA_GENS)
        value = math.exp(-0.25 * space.fock_norm_sq(v))
        assert space.fock_factor(v) == value
        assert space.fock_factor(-v) == value


def test_fock_norm_is_bit_exact_under_negation():
    space = sp()
    rng = np.random.default_rng(13)
    for _ in range(12):
        v = rand_vector(rng, VA_GENS)
        if not v.is_zero():
            assert space.fock_norm_sq(-v) == space.fock_norm_sq(v)
            assert space.mover_norm_sq(-v) == space.mover_norm_sq(v)
