import cmath
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np
import pytest

from weylnet.errors import (
    BadIntervals,
    MissingCharacterValue,
    NotInDomain,
    RegularizerNotContained,
)
from weylnet.funcspace import Interval
from weylnet.nets import (
    NET_LABEL,
    GaugeElement,
    character_gauge,
    diagram_check,
    disjoint_sigma,
    fixed_point_project,
    gauge_apply,
    locality_report,
    make_sector,
    net_generators,
    sector_apply,
)
from weylnet.registry import load_registry, parse_registry
from weylnet.symplectic import ZERO
from weylnet.weyl import (
    IDENTITY,
    max_coeff_distance,
    weyl_add,
    weyl_mul,
    weyl_star,
    weyl_word,
)


@lru_cache(maxsize=1)
def sp():
    return load_registry()


def iv(a, b):
    return Interval(Fraction(a), Fraction(b))


I_MID = iv("-9/8", "9/8")


def test_net_membership_sets():
    space = sp()
    names = {
        tuple(
            n
            for n in space.generator_names()
            if space.generator(n) in net_generators(space, k, I_MID)
        )
        for k in ("A",)
    }
    assert net_generators(space, "A", I_MID) == ()
    assert net_generators(space, "C", I_MID) == (space.generator("c0"),)
    assert net_generators(space, "Q", I_MID) == (space.generator("q0"),)
    assert set(net_generators(space, "E", I_MID)) == {
        space.generator("q0"),
        space.generator("n1"),
    }
    assert set(net_generators(space, "F", I_MID)) == {
        space.generator("T0"),
        space.generator("q0"),
        space.generator("c0"),
    }
    assert net_generators(space, "B", I_MID) == (space.generator("n1"),)


def test_constant_in_b_for_every_interval():
    space = sp()
    for interval in (iv(5, 6), iv(-30, -29), I_MID):
        assert space.generator("n1") in net_generators(space, "B", interval)
        assert space.generator("n1") in net_generators(space, "E", interval)


def test_compact_kink_in_f_not_e():
    space = sp()
    big = iv("-3/2", "3/2")
    t0 = space.generator("T0")
    assert t0 in net_generators(space, "F", big)
    assert t0 not in net_generators(space, "E", big)


def test_locality_observables():
    space = sp()
    assert locality_report(space, "A", iv(-21, -4), iv(4, 21)) <= 1e-6
    assert locality_report(space, "B", iv(-21, -4), iv(4, 21)) <= 1e-6
    assert locality_report(space, "C", iv("-17/8", "-7/8"), iv("7/8", "17/8")) <= 1e-6


def test_locality_rejects_overlap():
    with pytest.raises(BadIntervals):
        locality_report(sp(), "A", iv(-1, 1), iv(0, 2))


def test_field_net_phase_matrix():
    space = sp()
    left, right = iv("-17/8", "-7/8"), iv("7/8", "17/8")
    assert locality_report(space, "F", left, right) <= 1e-6
    # the c2/c1 pair is charged on both sides: sigma = G_- F_c - F_+ G_c
    c2, c1 = space.generator("c2"), space.generator("c1")
    assert c2 in net_generators(space, "F", left) and c1 in net_generators(space, "F", right)
    assert space.sigma(c2, c1) == pytest.approx(0.0, abs=1e-9)
    assert locality_report(space, "E", left, right) <= 1e-6


def test_soliton_phases_per_side():
    # F in Ve(I) acts on disjoint charge carriers by e^{-i F_side G_c}
    space = sp()
    F = space.generator("q0")
    rho = make_sector(space, F, I_MID)
    ch = space.charges(F)
    f_minus, f_plus = ch.minus, ch.plus
    assert (f_minus, f_plus) == (Fraction(-1, 2), Fraction(1, 2))
    g_right = space.generator("c1")  # supported in [1, 2]
    g_left = space.generator("c2")  # supported in [-2, -1]
    out_r = sector_apply(space, rho, weyl_word(g_right))
    out_l = sector_apply(space, rho, weyl_word(g_left))
    phase_r = out_r.terms()[0][1]
    phase_l = out_l.terms()[0][1]
    assert abs(phase_r - cmath.exp(-1j * float(f_plus) * 1.0)) < 1e-6
    assert abs(phase_l - cmath.exp(-1j * float(f_minus) * 1.0)) < 1e-6


def test_sector_identity_for_zero_element():
    space = sp()
    rho = make_sector(space, ZERO, I_MID)
    A = weyl_add(weyl_word(sp().generator("T")), weyl_word(sp().generator("aC"), 2j))
    assert max_coeff_distance(sector_apply(space, rho, A), A) == 0.0


def test_sector_requires_containment():
    space = sp()
    with pytest.raises(NotInDomain):
        make_sector(space, space.generator("c1"), iv(-1, 1))


def test_dhr_trivial_on_disjoint_observables():
    # F in Vc(I): the action on observable generators localized away from I
    # is trivial at quadrature scale
    space = sp()
    rho = make_sector(space, space.generator("c0"), iv("-5/8", "5/8"))
    for name in ("aL", "aR"):
        A = weyl_word(space.generator(name))
        out = sector_apply(space, rho, A)
        assert max_coeff_distance(out, A) < 1e-6


def test_sector_is_star_automorphism():
    space = sp()
    rng = np.random.default_rng(0)
    rho = make_sector(space, space.generator("q0"), I_MID)
    names = list(space.generator_names())
    for _ in range(10):
        A = weyl_word(space.generator(str(rng.choice(names))), complex(*rng.standard_normal(2)))
        B = weyl_word(space.generator(str(rng.choice(names))), complex(*rng.standard_normal(2)))
        lhs = sector_apply(space, rho, weyl_mul(space, A, B))
        rhs = weyl_mul(space, sector_apply(space, rho, A), sector_apply(space, rho, B))
        assert max_coeff_distance(lhs, rhs) < 1e-12
        assert max_coeff_distance(
            sector_apply(space, rho, weyl_star(A)), weyl_star(sector_apply(space, rho, A))
        ) < 1e-12


def test_gauge_phases():
    space = sp()
    g = GaugeElement(n=0.3, r=-1.2)
    A = weyl_word(space.generator("T"))  # charges (1, 1)
    out = gauge_apply(space, g, A)
    assert out.terms()[0][1] == pytest.approx(cmath.exp(-1j * (0.3 - 1.2)))
    assert max_coeff_distance(gauge_apply(space, GaugeElement(), A), A) == 0.0


def test_gauge_fixes_observables():
    space = sp()
    g = GaugeElement(n=2.0, r=3.0)
    for v in net_generators(space, "B", I_MID):
        A = weyl_word(v)
        assert max_coeff_distance(gauge_apply(space, g, A), A) == 0.0


def test_character_table_gauge():
    space = sp()
    A = weyl_add(weyl_word(space.generator("T")), weyl_word(space.generator("aC")))
    table = {(Fraction(1), Fraction(1)): -1.0 + 0j, (Fraction(0), Fraction(0)): 1.0 + 0j}
    out = gauge_apply(space, character_gauge(table), A)
    coeffs = dict(out.terms())
    assert coeffs[space.generator("T")] == pytest.approx(-1.0)
    assert coeffs[space.generator("aC")] == pytest.approx(1.0)
    with pytest.raises(MissingCharacterValue):
        gauge_apply(space, character_gauge({}), A)


def test_gauge_sector_commutation():
    space = sp()
    rho = make_sector(space, space.generator("q0"), I_MID)
    g = GaugeElement(n=0.7, r=0.4)
    A = weyl_add(weyl_word(space.generator("T"), 1 + 2j), weyl_word(space.generator("c1")))
    lhs = gauge_apply(space, g, sector_apply(space, rho, A))
    rhs = sector_apply(space, rho, gauge_apply(space, g, A))
    assert max_coeff_distance(lhs, rhs) < 1e-12


def test_transportability_surrogate():
    # equally charged F, F': the ratio automorphism is implemented by an
    # uncharged element
    space = sp()
    F = space.generator("c1")
    F2 = space.generator("c2")
    assert space.charges(F).c == space.charges(F2).c
    diff = F - F2
    ch = space.charges(diff)
    assert ch.c == 0 and ch.q == 0
    assert space.in_space(diff, "Vb")


def test_fixed_point_projections():
    space = sp()
    A = weyl_add(
        weyl_add(weyl_word(space.generator("T"), 2.0), weyl_word(space.generator("q0"), 1j)),
        weyl_add(weyl_word(space.generator("c0"), -1.0), weyl_word(space.generator("aC"))),
    )
    full = fixed_point_project(space, A, "G_full")
    assert full == weyl_word(space.generator("aC"))
    gq = fixed_point_project(space, A, "G_q")
    keys = {v for v, _ in gq.terms()}
    assert keys == {space.generator("c0"), space.generator("aC")}
    gc = fixed_point_project(space, A, "G_c")
    keys = {v for v, _ in gc.terms()}
    assert keys == {space.generator("q0"), space.generator("aC")}
    # idempotent and star-compatible
    assert fixed_point_project(space, gq, "G_q") == gq
    assert fixed_point_project(space, weyl_star(A), "G_q") == weyl_star(gq)
    assert fixed_point_project(space, weyl_word(space.generator("T")), "G_full").is_zero()


def test_diagram_check_passes():
    space = sp()
    clauses = diagram_check(space, space.generator("T0"), I_MID)
    names = [
        "q_into_zero_c",
        "c_into_zero_q",
        "va_disjoint_fixed",
        "fixed_points_G_q",
        "fixed_points_G_c",
        "fixed_points_G_full",
    ]
    assert list(clauses.items()) == [(name, True) for name in names]


def test_diagram_check_containment():
    space = sp()
    with pytest.raises(RegularizerNotContained):
        diagram_check(space, space.generator("T0"), iv(2, 3))


def test_disjoint_sigma_matches_quadrature():
    space = sp()
    F = space.generator("c2")
    G = space.generator("q0")
    lhs = space.sigma(F, G)
    rhs = disjoint_sigma(space, F, G, f_left=True)
    assert abs(lhs - rhs) < 1e-6


def _net_generators_by_is_central(space, kind, I):
    """The earlier definition of net_generators, kept as an oracle: it skips
    a generator whose assembled pair is (0, constant) before reading its
    charges, and appends the unit to B and E unless already present."""
    out = []
    for name in space.generator_names():
        v = space.generator(name)
        f0, f1 = space.assemble(v)
        if f0.is_zero() and f1.is_constant():
            continue
        if space.in_space(v, NET_LABEL[kind]) and I.contains(space.localization(v)):
            out.append(v)
    if kind in ("B", "E"):
        unit = space.unit_vector()
        if unit not in out:
            out.append(unit)
    return tuple(out)


DEFAULT_TEXT = resources.files("weylnet.data").joinpath("default.registry").read_text()
SECOND_CENTRAL = "fn two constant value=2\npair n2 f0=0 f1=two\n"


@pytest.mark.parametrize("extra", ["", SECOND_CENTRAL], ids=["default", "second-central"])
def test_net_generators_match_the_is_central_definition(extra):
    space = parse_registry(DEFAULT_TEXT + extra)
    window = Interval(space.grid.x0, space.grid.x1)
    intervals = (iv(-21, -4), iv(4, 21), iv("-17/8", "-7/8"), iv("7/8", "17/8"), I_MID, window)
    for kind in "ABCQEF":
        for I in intervals:
            assert net_generators(space, kind, I) == _net_generators_by_is_central(space, kind, I)
    if extra:
        # the second central generator enters no net; the unit enters B and E
        n2 = space.generator("n2")
        assert not any(n2 in net_generators(space, k, window) for k in "ABCQEF")
        assert space.unit_vector() in net_generators(space, "B", window)


def test_faint_generator_has_empty_localization_and_joins_no_net():
    """Where the two definitions part: slot-0 samples that are not zero but
    all sit below TOL_SUPP localize nowhere, so the generator is taken as
    central and skipped; the is_central definition put it in every net."""
    faint = ",".join(["0"] + ["1e-13", "-1e-13"] * 4 + ["0"])
    space = parse_registry(
        DEFAULT_TEXT + f"fn faint grid window=-4:4 limits=0:0 values={faint} integral=0\n"
        "pair faint f0=faint f1=0\n"
    )
    v = space.generator("faint")
    assert space.localization(v).is_empty and not space.assemble(v)[0].is_zero()
    for kind in "ABCQEF":
        assert v not in net_generators(space, kind, I_MID)
        assert v in _net_generators_by_is_central(space, kind, I_MID)
