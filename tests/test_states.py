import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from weylnet.errors import InvalidKey, NotInDomain
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
from weylnet.symplectic import ZERO
from weylnet.weyl import (
    IDENTITY,
    weyl_add,
    weyl_mul,
    weyl_scale,
    weyl_star,
    weyl_word,
)


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
