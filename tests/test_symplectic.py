import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylnet import errors
from weylnet.funcspace import DEFAULT_GRID, EMPTY, Grid, fock_norm_sq, pairing
from weylnet.registry import load_registry, parse_registry
from weylnet.symplectic import Charges, Space, SymVector, ZERO, sigma_plane


from functools import lru_cache


@lru_cache(maxsize=1)
def load_space():
    return load_registry()


@pytest.fixture(scope="module")
def space():
    return load_space()


def test_default_registry_generators(space):
    names = set(space.generator_names())
    assert {"T", "T0", "T3", "aL", "aC", "aR", "n1", "q0", "q3", "c0", "c1", "c2"} <= names


def test_unknown_generator(space):
    with pytest.raises(errors.UnknownGenerator) as info:
        space.generator("nope")
    message = str(info.value)
    assert message.startswith("unknown generator 'nope'; registered: T, T0, T3, aL,")
    assert all(name in message for name in space.generator_names())


def test_space_is_fixed_after_load():
    from weylnet.suites import run_suite

    space = load_registry()
    atoms, names, unit = len(space.atoms), space.generator_names(), space.unit_vector()
    run_suite("states-positivity", 1, space=space)
    for seed in (1, 2, 3):
        run_suite("chiral", seed, space=space)
    assert len(space.atoms) == atoms
    assert space.generator_names() == names
    assert space.unit_vector() == unit


def test_unit_atom_resolved_at_load():
    # a constant 2 is not the unit: the unit atom is added once, at load
    sp = parse_registry("fn two constant value=2\npair e f0=0 f1=two\n")
    assert [a.name for a in sp.atoms] == ["e.1", "__unit__"]
    assert sp.charges(sp.unit_vector()).inf == 1
    assert sp.generator_names() == ("e",)


def test_slot1_is_constant_sees_cancelling_atoms(space):
    # q0.1 and T0.1 are distinct atoms holding the same function tk0
    v = space.generator("q0") - space.generator("T0")
    assert len(space.slot_part(v, 1).items()) == 2
    assert space.slot1_is_constant(v)
    assert space.slot1_is_constant(space.generator("n1").scale(3))
    assert not space.slot1_is_constant(space.generator("q0"))
    assert not space.localization(v).is_empty  # slot 0 is -dtk0


def test_fock_factor(space):
    v = space.generator("aC")
    assert space.fock_factor(ZERO) == 1.0
    assert space.fock_factor(v) == math.exp(-0.25 * space.fock_norm_sq(v))


def test_vector_algebra(space):
    v = space.generator("aC")
    w = space.generator("c0")
    assert v + w - v == w
    assert v.scale(Fraction(1, 2)).scale(2) == v
    assert (v - v).is_zero()
    assert hash(v + w) == hash(w + v)


def test_charges_exact(space):
    for name, (c, q) in {
        "T": (1, 1),
        "T0": (1, 1),
        "T3": (1, 1),
        "aL": (0, 0),
        "aC": (0, 0),
        "n1": (0, 0),
        "q0": (0, 1),
        "q3": (0, 1),
        "c0": (1, 0),
        "c1": (1, 0),
        "c2": (1, 0),
    }.items():
        ch = space.charges(space.generator(name))
        assert ch.c == c and ch.q == q, name
    # n1 carries pure central charge
    assert space.charges(space.generator("n1")).inf == 1
    assert space.charges(space.generator("aL")).inf == 0
    assert space.charges(space.generator("q0")).inf == 0


def test_charges_linear(space):
    v = space.generator("T").scale(Fraction(2, 3)) - space.generator("q0").scale(5)
    ch = space.charges(v)
    assert ch.c == Fraction(2, 3)
    assert ch.q == Fraction(2, 3) - 5


def test_membership_table(space):
    g = lambda n: space.generator(n)
    assert space.in_space(g("aC"), "Va")
    assert not space.in_space(g("n1"), "Va")
    assert space.in_space(g("n1"), "Vb")
    assert space.in_space(g("c0"), "Vc")
    assert not space.in_space(g("c0"), "Ve")
    assert space.in_space(g("q0"), "Ve")
    assert not space.in_space(g("q0"), "Vc")
    assert space.in_space(g("T"), "Vf")
    assert not space.in_space(g("T"), "Ve")
    # q0 has equal-magnitude opposite limits
    assert space.in_space(g("q0"), "Vq")
    assert space.in_space(g("q0") + g("aC"), "Vq")


def test_central_line(space):
    n1 = space.generator("n1")
    assert space.localization(n1.scale(Fraction(7, 2))).is_empty
    assert not space.localization(space.generator("q0")).is_empty
    v = space.generator("aC") + n1.scale(Fraction(3, 4))
    rest, coeff = space.split_off_center(v)
    assert coeff == Fraction(3, 4)
    assert space.charges(rest).inf == 0
    assert rest == space.generator("aC")  # aC is decaying, unit atom split exactly


def test_sigma_antisymmetric_bilinear(space):
    names = ["T", "aC", "q0", "c0", "n1", "T3"]
    vs = [space.generator(n) for n in names]
    for v in vs:
        for w in vs:
            assert abs(space.sigma(v, w) + space.sigma(w, v)) < 1e-12
    a, b, c = vs[0], vs[1], vs[2]
    lhs = space.sigma(a + b.scale(3), c)
    rhs = space.sigma(a, c) + 3 * space.sigma(b, c)
    assert abs(lhs - rhs) < 1e-10


def test_sigma_elementary_plane(space):
    # sigma(c*A + n*e, c'*A + n'*e) = c n' - c' n, where A = slot-0 of T and
    # e is the central unit
    A = space.slot_part(space.generator("T"), 0)
    e = space.unit_vector()
    for c, n, cp, np_ in [(1, 0, 0, 1), (2, 3, -1, 5), (0, 2, 3, 0)]:
        v = A.scale(c) + e.scale(n)
        w = A.scale(cp) + e.scale(np_)
        assert abs(space.sigma(v, w) - (c * np_ - cp * n)) < 1e-9


def test_sigma_disjoint_supports_charge_formula(space):
    # F localized left of G: sigma(F, G) = G_minus * F_c - F_plus * G_c
    F = space.generator("T0") + space.generator("c2")  # lives around [-4, 4]
    G = space.vector({"c1": Fraction(1)})  # support [1, 2] — not disjoint; use T3-shifted
    F = space.generator("c2")  # support [-2, -1]
    G = space.generator("c1")  # support [1, 2]
    # both are slot-0 only: sigma should vanish
    assert abs(space.sigma(F, G)) < 1e-12
    # now give G a kink component centered at 3
    G2 = space.generator("T3")
    ch_F = space.charges(F)
    ch_G2 = space.charges(G2)
    # F sits entirely left of loc(G2): f0 sees g1's left tail -1/2
    expected = float(Fraction(-1, 2) * ch_F.c) - 0.0  # F has no slot-1 part
    assert abs(space.sigma(F, G2) - expected) < 1e-9
    assert ch_G2.c == 1


def test_assemble_and_localization(space):
    loc = space.localization(space.generator("c1"))
    assert not loc.is_empty
    assert 0.9 < float(loc.a) < 1.1 and 1.9 < float(loc.b) < 2.1
    assert space.localization(space.generator("n1")) is EMPTY
    loc0 = space.localization(space.generator("T0"))
    assert float(loc0.a) > -1.2 and float(loc0.b) < 1.2


def test_fock_norm_requires_zero_charges(space):
    with pytest.raises(errors.NotInDomain):
        space.fock_norm_sq(space.generator("T"))
    val = space.fock_norm_sq(space.generator("aC"))
    assert val > 0


def test_psi_t_kills_all_charges(space):
    T = space.generator("T")
    for name in ("T3", "q3", "c1", "aR"):
        v = space.generator(name) + space.generator("aC").scale(Fraction(1, 3))
        img = space.psi_T(v, T)
        ch = space.charges(img.tangent)
        assert ch.c == 0 and ch.q == 0 and ch.inf == 0
        assert img.l_part[0] == space.charges(v).c
        assert img.m_part[1] == space.charges(v).q


def test_psi_t_central_invariance(space):
    # the central line maps to pure central data: zero tangent after split
    T = space.generator("T")
    n1 = space.generator("n1").scale(Fraction(5, 3))
    img = space.psi_T(n1, T)
    assert img.tangent.is_zero()
    assert img.l_part[0] == 0
    # F_n of a constant is F_inf times the regularizer's unit c-charge
    assert abs(img.l_part[1] - 5 / 3) < 1e-9
    assert img.m_part[1] == 0
    assert abs(img.m_part[0]) < 1e-9


def test_psi_t_degenerate_regularizer(space):
    with pytest.raises(errors.DegenerateRegularizer):
        space.psi_T(space.generator("aC"), space.generator("q0"))


def test_tangent_is_the_psi_t_tangent(space):
    rng = np.random.default_rng(9)
    names = space.generator_names()
    vectors = [space.generator(n) for n in names] + [ZERO]
    for _ in range(12):
        picks = rng.choice(len(names), size=3, replace=False)
        v = ZERO
        for i in picks:
            v = v + space.generator(names[i]).scale(
                Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))))
        vectors.append(v)
    for T in (space.generator("T"), space.generator("T3")):
        for v in vectors:
            assert space.psi_T(v, T).tangent == space.tangent(v, T)
    # zero c (q0), zero q (c0), or both (aC)
    for name in ("q0", "c0", "aC"):
        for split in (space.psi_T, space.tangent):
            with pytest.raises(errors.DegenerateRegularizer):
                split(space.generator("aL"), space.generator(name))


# the T-relative formulas as they stood before `Space.charge_part`: each
# moment assembled its own slot of T and v, and the tangent subtracted the
# central constant gamma = F_inf - b T_inf in the same step

def _old_rel_charge_n(space, v, T):
    t0, _ = space.assemble(space.slot_part(T, 0))
    _, f1 = space.assemble(v)
    return pairing(f1, t0)


def _old_rel_charge_r(space, v, T):
    _, t1 = space.assemble(space.slot_part(T, 1))
    f0, _ = space.assemble(v)
    return pairing(f0, t1)


def _old_tangent(space, v, T):
    ch, tch = space.charges(v), space.charges(T)
    a = ch.c / tch.c
    b = ch.q / tch.q
    gamma = ch.inf - b * tch.inf
    return (v - space.slot_part(T, 0).scale(a) - space.slot_part(T, 1).scale(b)
            - space.unit_vector().scale(gamma))


def _regularizers(space):
    g = space.generator
    # the last has T_c = 3/2 != T_q = 1/2, so a and b are told apart
    return [g("T"), g("T0"), g("T3"), g("T3").scale(Fraction(3, 2)) - g("q0")]


def test_psi_t_equals_the_old_formulas(space):
    vectors = [space.generator(n) for n in space.generator_names()]
    vectors += [ZERO, space.unit_vector()] + _random_vectors(space, 14, count=30)
    for T in _regularizers(space):
        for v in vectors:
            img = space.psi_T(v, T)
            ch = space.charges(v)
            assert img.tangent == _old_tangent(space, v, T), v
            assert img.l_part == (ch.c, _old_rel_charge_n(space, v, T)), v
            assert img.m_part == (_old_rel_charge_r(space, v, T), ch.q), v


def test_charge_part_carries_the_charges(space):
    for T in _regularizers(space):
        tch = space.charges(T)
        for v in _random_vectors(space, 15, count=20):
            ch = space.charges(v)
            a, b, l = space.charge_part(ch, T)
            assert (a * tch.c, b * tch.q) == (ch.c, ch.q)
            lch = space.charges(l)
            assert (lch.c, lch.q) == (ch.c, ch.q)


def test_charges_carry_the_exact_limits(space):
    vectors = [space.generator(n) for n in space.generator_names()]
    for v in vectors + [space.unit_vector()] + _random_vectors(space, 16):
        ch = space.charges(v)
        _, f1 = space.assemble(v)
        assert (ch.minus, ch.plus) == (f1.left_limit, f1.right_limit), v
    q0 = space.charges(space.generator("q0"))
    assert (q0.minus, q0.plus) == (Fraction(-1, 2), Fraction(1, 2))


def test_sigma_decomposition_identity(space):
    T = space.generator("T0")
    gens = ["T3", "q0", "q3", "c0", "c1", "c2", "aL", "aC", "aR", "n1", "T"]
    rng = np.random.default_rng(7)
    for _ in range(40):
        combo_v = {g: Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for g in rng.choice(gens, 3, replace=False)}
        combo_w = {g: Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4))) for g in rng.choice(gens, 3, replace=False)}
        v = space.vector(combo_v)
        w = space.vector(combo_w)
        iv = space.psi_T(v, T)
        iw = space.psi_T(w, T)
        lhs = space.sigma(v, w)
        rhs = (
            space.sigma(iv.tangent, iw.tangent)
            + sigma_plane(iv.l_part, iw.l_part)
            + sigma_plane(iv.m_part, iw.m_part)
        )
        assert abs(lhs - rhs) < 1e-6, (combo_v, combo_w)


def test_registry_parse_errors():
    with pytest.raises(errors.RegistryParseError):
        parse_registry("fn x bogus-kind center=0")
    with pytest.raises(errors.RegistryParseError):
        parse_registry("pair P f0=missing f1=0")
    with pytest.raises(errors.RegistryParseError):
        parse_registry("fn x kink center=0 width=1 compact=maybe form=step")
    with pytest.raises(errors.RegistryParseError):
        parse_registry("garbage line here")
    with pytest.raises(errors.RegistryParseError):
        parse_registry("fn one constant value=1\nfn one constant value=2")
    with pytest.raises(errors.RegistryParseError, match="line 3: duplicate pair 'e'"):
        parse_registry("fn one constant value=1\npair e f1=one\npair e f1=one\n")
    # slot 0 needs a declared integral; an even Hermite function has none
    with pytest.raises(errors.RegistryParseError, match="'P.0' needs a declared integral"):
        parse_registry("fn h gaussian-hermite order=2\npair P f0=h f1=0\n")


def test_registry_grid_kind():
    vals = ",".join(str(x) for x in [0.0, 0.1, 0.3, 0.5, 0.3, 0.1, 0.05, 0.01, 0.0])
    sp = parse_registry(
        f"fn g grid window=-4:4 limits=0:0 values={vals} integral=0\npair P f0=0 f1=g\n"
    )
    assert sp.generator_names() == ("P",)
    ch = sp.charges(sp.generator("P"))
    assert ch.q == 0 and ch.inf == 0


def test_registry_comments_and_blanks():
    sp = parse_registry("\n# nothing\n   \nfn one constant value=1\npair e f0=0 f1=one # tail\n")
    assert sp.charges(sp.generator("e")).inf == 1


@settings(max_examples=20, deadline=None)
@given(
    a=st.fractions(min_value=-3, max_value=3, max_denominator=8),
    b=st.fractions(min_value=-3, max_value=3, max_denominator=8),
)
def test_psi_t_is_linear(a, b):
    sp = load_space()
    T = sp.generator("T")
    v = sp.generator("q3")
    w = sp.generator("c1")
    img = sp.psi_T(v.scale(a) + w.scale(b), T)
    iv = sp.psi_T(v, T)
    iw = sp.psi_T(w, T)
    assert img.tangent == iv.tangent.scale(a) + iw.tangent.scale(b)
    assert img.l_part[0] == a * iv.l_part[0] + b * iw.l_part[0]
    assert abs(img.l_part[1] - (float(a) * iv.l_part[1] + float(b) * iw.l_part[1])) < 1e-9
    assert img.m_part[1] == a * iv.m_part[1] + b * iw.m_part[1]


# -- SymVector against a dict-of-Fraction oracle ------------------------------

_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_terms = st.lists(st.tuples(st.integers(0, 5), _rationals), max_size=6)


def _oracle(terms):
    acc = {}
    for a, c in terms:
        acc[a] = acc.get(a, Fraction(0)) + Fraction(c)
    return {a: c for a, c in acc.items() if c}


def _as_dict(v):
    items = v.items()
    atoms = [a for a, _ in items]
    assert atoms == sorted(set(atoms))  # sorted, one entry per atom
    assert all(isinstance(c, Fraction) and c != 0 for _, c in items)
    return dict(items)


@settings(max_examples=200, deadline=None)
@given(x=_terms, y=_terms, k=_rationals)
def test_symvector_matches_fraction_oracle(x, y, k):
    v, w = SymVector(x), SymVector(y)
    ox, oy = _oracle(x), _oracle(y)
    assert _as_dict(v) == ox
    assert _as_dict(v + w) == _oracle(list(ox.items()) + list(oy.items()))
    assert _as_dict(v - w) == _oracle(list(ox.items()) + [(a, -c) for a, c in oy.items()])
    assert _as_dict(-v) == {a: -c for a, c in ox.items()}
    for factor in (k, -k, 0, 3, Fraction(-2, 7)):
        assert _as_dict(v.scale(factor)) == _oracle((a, factor * c) for a, c in ox.items())
    assert v.scale(0) == ZERO and v.scale(0).is_zero()
    assert (v == w) == (ox == oy)
    assert v.is_zero() == (not ox)
    # the same rational vector reached by other routes: equal, same hash
    routes = [
        SymVector(sorted(ox.items())),
        SymVector(reversed(x)),
        sum((SymVector([t]) for t in reversed(x)), ZERO),
        (v + w) - w,
        (v - w) + w,
        -(-v),
        v.scale(k).scale(1 / k) if k else v.scale(1),
        v.scale(Fraction(1, 6)) + v.scale(Fraction(5, 6)),
    ]
    for r in routes:
        assert r == v and hash(r) == hash(v), (r, v)


_scales = st.one_of(st.sampled_from([0, 1, -1]), st.integers(-6, 6), _rationals)


def _assert_canonical(got, items):
    """`got` is the vector `SymVector(items)` builds from exact Fraction sums:
    the same denominator, numerators and hash, whatever path built it."""
    want = SymVector(items)
    assert (got._den, got._nums) == (want._den, want._nums), (got, want)
    assert hash(got) == hash(want)
    assert got._den > 0 and math.gcd(got._den, *[n for _, n in got._nums]) == 1


@settings(max_examples=300, deadline=None)
@given(x=_terms, y=_terms, z=st.lists(st.tuples(st.integers(0, 5), st.integers(-9, 9)), max_size=6),
       k=_scales)
def test_symvector_fast_paths_give_the_canonical_form(x, y, z, k):
    """Sums with ZERO, sums over equal denominators and scales by 0, 1 and
    -1 take short cuts; each result is the canonical vector of the exact
    rational sum.  u holds z's integer numerators over v's denominator (the
    1/den term on atom 7 keeps it there), so v and u always share one."""
    v, w = SymVector(x), SymVector(y)
    ox, oy = _oracle(x), _oracle(y)
    zu = [(a, Fraction(n, v._den)) for a, n in z] + [(7, Fraction(1, v._den))]
    u, ou = SymVector(zu), _oracle(zu)
    assert u._den == v._den
    for left, right, ol, orr in ((v, w, ox, oy), (v, u, ox, ou), (u, v, ou, ox),
                                 (v, ZERO, ox, {}), (ZERO, v, {}, ox), (ZERO, ZERO, {}, {})):
        _assert_canonical(left + right, list(ol.items()) + list(orr.items()))
        _assert_canonical(left - right, list(ol.items()) + [(a, -c) for a, c in orr.items()])
    for vec, o in ((v, ox), (u, ou), (ZERO, {})):
        _assert_canonical(-vec, [(a, -c) for a, c in o.items()])
        _assert_canonical(vec.scale(k), [(a, k * c) for a, c in o.items()])
    assert u.scale(1) is u and u.scale(Fraction(1)) is u and u.scale(0) is ZERO
    assert u + ZERO is u and ZERO + u is u and u - ZERO is u


# -- fast paths pinned to the formulas they replace ----------------------------


def _random_vectors(space, seed, count=60):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        picks = rng.choice(len(space.atoms), int(rng.integers(1, 6)), replace=False)
        out.append(
            SymVector(
                (int(a), Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 13))))
                for a in picks
            )
        )
    return out


def test_sigma_matches_fraction_double_loop(space):
    def reference(v, w):
        total = 0.0
        for a, ca in v.items():
            for b, cb in w.items():
                fa, fb = space.atoms[a], space.atoms[b]
                if fa.slot == fb.slot:
                    continue
                g = pairing(fa.fn, fb.fn) if fa.slot == 0 else -pairing(fb.fn, fa.fn)
                total += float(ca) * float(cb) * g
        return total

    vs = _random_vectors(space, 11)
    for v, w in zip(vs, vs[1:] + vs[:1]):
        assert space.sigma(v, w) == reference(v, w)


def test_charges_match_fraction_sums(space):
    for v in _random_vectors(space, 12) + [ZERO, space.unit_vector()]:
        c = plus = minus = Fraction(0)
        for a, coeff in v.items():
            fn = space.atoms[a].fn
            if space.atoms[a].slot == 0:
                c += coeff * fn.integral
            else:
                plus += coeff * fn.right_limit
                minus += coeff * fn.left_limit
        assert space.charges(v) == Charges(c, plus - minus, (plus + minus) / 2)
        f0, f1 = space.assemble(v)
        assert (f0.integral, f1.left_limit, f1.right_limit) == (c, minus, plus)


def test_slot1_is_constant_matches_samples(space):
    A0 = space.slot_part(space.generator("T"), 0)
    e = space.unit_vector()
    vs = [space.generator("q0") - space.generator("T0"), space.generator("n1").scale(3)]
    vs += [A0.scale(c) + e.scale(n) for c in (0, 1, Fraction(-3, 2)) for n in (0, 2, Fraction(1, 3))]
    vs += _random_vectors(space, 13)
    for v in vs:
        assert space.slot1_is_constant(v) == space.assemble(v)[1].is_constant(), v
    assert space.slot1_is_constant(vs[0]) and not space.slot1_is_constant(space.generator("q0"))


# -- the Fock norm as a quadratic form over per-atom columns -------------------


def _fock_vectors(space, seed, count=200):
    """Every fully decaying generator, then `count` nonzero tangents of
    random 4-term combinations, against each regularizer in turn."""
    vs = [space.generator(n) for n in space.generator_names()
          if space.in_space(space.generator(n), "Va")]
    assert len(vs) >= 3
    names = space.generator_names()
    regs = [space.generator(n) for n in ("T", "T0", "T3")]
    rng = np.random.default_rng(seed)
    tangents = []
    while len(tangents) < count:
        picks = rng.choice(len(names), 4, replace=False)
        v = space.vector({names[i]: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
                          for i in picks})
        t = space.tangent(v, regs[len(tangents) % 3])
        if not t.is_zero():
            tangents.append(t)
    return vs + tangents


@pytest.mark.parametrize("points", [1024, 4096, 16384])
def test_fock_columns_match_the_per_vector_reference(points):
    space = load_registry(None, Grid(Fraction(-32), Fraction(32), points))
    for v in _fock_vectors(space, points):
        want = fock_norm_sq(*space.assemble(v))
        assert abs(space.fock_norm_sq(v) - want) <= 1e-13 * abs(want), v


def _count_columns(monkeypatch):
    from weylnet import symplectic

    built = []
    column = symplectic.fock_column

    def counted(fn, slot, *args):
        built.append(slot)
        return column(fn, slot, *args)

    monkeypatch.setattr(symplectic, "fock_column", counted)
    return built


def test_fock_columns_are_built_lazily(monkeypatch):
    from weylnet.states import STATES, eval_state
    from weylnet.weyl import parse_element

    space = load_registry()
    assert space._fock_q == {}
    built = _count_columns(monkeypatch)
    eval_state(space, STATES["field_f"](space), parse_element(space, "W[aC]"))
    aC = {a for a, _ in space.generator("aC").items()}
    assert len(aC) == 2 and set(space._fock_q) == aC and len(built) == 2


def test_each_fock_column_is_built_once_per_space(monkeypatch):
    from weylnet.suites import run_suite

    space = load_registry()
    built = _count_columns(monkeypatch)
    run_suite("states-positivity", 7, space=space)
    assert 0 < len(built) == len(space._fock_q) <= len(space.atoms)


def test_fock_norms_do_not_depend_on_read_order():
    forward, backward = load_registry(), load_registry()
    vs = _fock_vectors(forward, 5, count=40)
    first = [forward.fock_norm_sq(v) for v in vs]
    second = [backward.fock_norm_sq(v) for v in reversed(vs)]
    assert first == second[::-1]


@pytest.mark.parametrize("points", [4096, 16384])
def test_fock_norm_reads_no_assembled_samples(points, monkeypatch):
    space = load_registry(None, Grid(Fraction(-32), Fraction(32), points))
    vs = _fock_vectors(space, points, count=20)
    want = [space.fock_norm_sq(v) for v in vs]

    def refuse(self, v):
        raise AssertionError("assemble called")

    monkeypatch.setattr(Space, "assemble", refuse)
    assert [space.fock_norm_sq(v) for v in vs] == want


@pytest.mark.parametrize("name", ["T", "n1", "c0"])
def test_fock_norm_refuses_charged_vectors_before_any_column(name):
    space = load_registry()
    with pytest.raises(errors.NotInDomain, match=re.escape("fully decaying data (Va) only")):
        space.fock_norm_sq(space.generator(name))
    assert space._fock_q == {}


def test_fock_norm_refuses_a_window_cut_generator():
    # at --window 16 the window cuts the Hermite atoms at +-12: aR's exact
    # charges are zero, but its slot-0 samples integrate to about -0.031
    space = load_registry(None, Grid(Fraction(-16), Fraction(16), 4096))
    aR = space.generator("aR")
    assert space.in_space(aR, "Va")
    with pytest.raises(errors.NotInDomain, match=re.escape("f0 must have zero integral (charge)")):
        space.fock_norm_sq(aR)


@pytest.mark.parametrize("window, accepted", [(16, False), (32, True)])
def test_fock_domain_reads_sigma_against_the_unit(window, accepted):
    """The Fock domain's numeric charge is sigma(v, e): bit for bit the sum
    of v's slot-0 atoms' Simpson values, so aR is refused where the window
    cuts its atoms and accepted where it does not."""
    from weylnet.funcspace import simpson

    space = load_registry(None, Grid(Fraction(-window), Fraction(window), 4096))
    e = space.unit_vector()
    for name in space.generator_names():
        v = space.generator(name).scale(Fraction(3, 7))
        want = sum(
            float(c) * simpson(space.atoms[a].fn)
            for a, c in v.items() if space.atoms[a].slot == 0
        )
        assert space.sigma(v, e) == want, name
    aR = space.generator("aR")
    if accepted:
        assert space.fock_norm_sq(aR) > 0
    else:
        with pytest.raises(errors.NotInDomain, match=re.escape("f0 must have zero integral (charge)")):
            space.fock_norm_sq(aR)
