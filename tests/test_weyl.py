import cmath
import math
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylnet import errors
from weylnet.registry import load_registry
from weylnet.symplectic import ZERO
from weylnet.weyl import (
    COEFF_EPS,
    IDENTITY,
    CrossedProduct,
    Staged,
    WeylElement,
    cocycle_defect,
    max_coeff_distance,
    parse_element,
    weyl_add,
    weyl_mul,
    weyl_scale,
    weyl_star,
    weyl_word,
)

from charge_rationals import rationals
from oracles import general_max_coeff_distance, general_star, staged_conjugate, staged_inverse


@lru_cache(maxsize=1)
def sp():
    return load_registry()


GENS = ["T", "T0", "T3", "aL", "aC", "aR", "n1", "q0", "q3", "c0", "c1", "c2"]


def rand_vector(rng, n_terms=3):
    space = sp()
    v = ZERO
    for name in rng.choice(GENS, size=n_terms, replace=False):
        coeff = Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 4)))
        v = v + space.generator(name).scale(coeff)
    return v


def test_identity_and_inverse():
    space = sp()
    v = space.generator("T") + space.generator("aC")
    W = weyl_word(v)
    Winv = weyl_word(-v)
    assert max_coeff_distance(weyl_mul(space, W, Winv), IDENTITY) < 1e-12


def test_exchange_relation():
    space = sp()
    rng = np.random.default_rng(3)
    for _ in range(25):
        v, w = rand_vector(rng), rand_vector(rng)
        lhs = weyl_mul(space, weyl_word(v), weyl_word(w))
        rhs = weyl_scale(
            weyl_mul(space, weyl_word(w), weyl_word(v)),
            cmath.exp(-1j * space.sigma(v, w)),
        )
        assert max_coeff_distance(lhs, rhs) < 1e-12


def test_associativity_brute_force():
    space = sp()
    rng = np.random.default_rng(4)
    for _ in range(25):
        u, v, w = (rand_vector(rng) for _ in range(3))
        A, B, C = weyl_word(u), weyl_word(v), weyl_word(w)
        lhs = weyl_mul(space, weyl_mul(space, A, B), C)
        rhs = weyl_mul(space, A, weyl_mul(space, B, C))
        assert max_coeff_distance(lhs, rhs) < 1e-12
        # oracle: expand the phases by hand
        total = cmath.exp(
            -0.5j * (space.sigma(u, v) + space.sigma(u + v, w))
        )
        key, coeff = lhs.terms()[0]
        assert key == u + v + w
        assert abs(coeff - total) < 1e-12


def test_star_involution_and_antihomomorphism():
    space = sp()
    rng = np.random.default_rng(5)
    u, v = rand_vector(rng), rand_vector(rng)
    A = weyl_add(weyl_word(u, 2.0 + 1.0j), weyl_word(v, -0.5j))
    assert weyl_star(weyl_star(A)) == A
    assert weyl_star(IDENTITY) == IDENTITY
    B = weyl_word(v, 0.3 - 0.7j)
    lhs = weyl_star(weyl_mul(space, A, B))
    rhs = weyl_mul(space, weyl_star(B), weyl_star(A))
    assert max_coeff_distance(lhs, rhs) < 1e-12


def test_normalize_drops_tiny_and_no_false_cancellation():
    v = sp().generator("q0")
    w = sp().generator("c0")
    A = WeylElement([(v, 1e-16)])
    assert not A.terms()
    B = weyl_add(weyl_word(v), weyl_scale(weyl_word(w), -1.0))
    assert len(B.terms()) == 2


def test_charge_additivity_under_mul():
    space = sp()
    A = weyl_add(weyl_word(space.generator("T")), weyl_word(space.generator("q0")))
    B = weyl_word(space.generator("c1"))
    prod = weyl_mul(space, A, B)
    charges = sorted(
        (rationals(space, k).c, rationals(space, k).q) for k, _ in prod.terms()
    )
    assert charges == [(Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))]


def test_cocycle_identity():
    space = sp()
    rng = np.random.default_rng(6)
    for _ in range(50):
        r, s, t = (rand_vector(rng) for _ in range(3))
        assert cocycle_defect(space, r, s, t) <= 1e-9
    assert cocycle_defect(space, rand_vector(rng), rand_vector(rng), ZERO) == 0


def _reference_mul(space, A, B):
    """The general double loop over terms, summed into a dict from 0j."""
    acc = {}
    for v, a in A.terms():
        for w, b in B.terms():
            acc[v + w] = acc.get(v + w, 0j) + a * b * cmath.exp(-0.5j * space.sigma(v, w))
    kept = [(v, a) for v, a in acc.items() if not abs(a) < COEFF_EPS]
    return sorted(kept, key=lambda t: t[0].items())


def _bits(terms):
    return [(v, a.real.hex(), a.imag.hex()) for v, a in terms]


def test_single_term_product_matches_the_double_loop():
    """W(v) W(w) is one term and skips WeylElement's dict: the same key and
    the same coefficient bits, signed zeros included, as the dict path; a
    coefficient below COEFF_EPS gives the zero element on both."""
    space = sp()
    rng = np.random.default_rng(8)
    coeffs = [1.0, -1.0, complex(1.0, -0.0), complex(-0.0, 2.5), 0.3 - 0.7j, 1e-8]
    words = [weyl_word(ZERO), IDENTITY]
    for _ in range(40):
        v = rand_vector(rng)
        words.append(weyl_word(v, coeffs[int(rng.integers(len(coeffs)))]))
        words.append(weyl_word(-v))
    for A in words:
        for B in words[:12]:
            got = weyl_mul(space, A, B)
            assert _bits(got.terms()) == _bits(_reference_mul(space, A, B))
    A, B = (weyl_word(space.generator(name), 1e-8) for name in ("aC", "q0"))
    assert not weyl_mul(space, A, B).terms() and _reference_mul(space, A, B) == []
    # signed zeros: the one-term element reads 0j + a, as the dict does
    one = WeylElement([(ZERO, complex(-0.0, -1.0))])
    assert _bits(one.terms()) == [(ZERO, "0x0.0p+0", "-0x1.0000000000000p+0")]


def test_one_term_star_scale_and_distance_match_the_general_path():
    """weyl_star and weyl_scale of a one-term element and max_coeff_distance
    of two skip the dict: the same keys and bits as the general path
    (tests/oracles.py, or WeylElement's dict), with signed zeros, an
    infinite coefficient, a scale below COEFF_EPS, equal keys and different
    keys.  Where A or B holds a non-finite coefficient, the distance (inf, or
    the nan of inf - inf) is refused on both paths, not dropped."""
    space = sp()
    rng = np.random.default_rng(12)
    coeffs = [1.0, -1.0, complex(1.0, -0.0), complex(-0.0, 2.5), complex(-3.0, 0.0),
              0.3 - 0.7j, 1e-8, complex(math.inf, -0.0), complex(-0.0, -0.0)]
    keys = [ZERO] + [rand_vector(rng) for _ in range(5)]
    words = [weyl_word(v, c) for v in keys for c in coeffs]
    words += [weyl_mul(space, A, B) for A, B in zip(words[::5], words[1::5])]
    refused = []
    for A in words:
        assert _bits(weyl_star(A).terms()) == _bits(general_star(A))
        for z in (1j, -1.0, complex(-0.0, 1.0), 1e-20):
            want = WeylElement([(v, z * a) for v, a in A.terms()])
            assert _bits(weyl_scale(A, z).terms()) == _bits(want.terms())
        for B in words:
            if all(cmath.isfinite(a) for W in (A, B) for _, a in W.terms()):
                assert max_coeff_distance(A, B).hex() == general_max_coeff_distance(A, B).hex()
            else:
                refused.append(len(A.terms()) == 1 == len(B.terms()))
                with pytest.raises(errors.NonFiniteDefect):
                    max_coeff_distance(A, B)
    assert sum(len(A.terms()) == 1 for A in words) > 50
    assert True in refused and False in refused  # both paths refuse


def _raw(*terms) -> WeylElement:
    """An element holding `terms` as given, past the builders' merge and sort."""
    element = object.__new__(WeylElement)
    object.__setattr__(element, "_terms", tuple(terms))
    return element


@pytest.mark.parametrize("bad", [complex(math.nan, 0.0), complex(math.inf, math.nan),
                                 complex(0.0, -math.inf)], ids=["nan", "inf-nan", "-inf"])
def test_max_coeff_distance_refuses_a_non_finite_coefficient(bad):
    """max() read a NaN coefficient's distance as 0.0 on the one-term path
    (max(0.0, nan)) and dropped it on the general path."""
    space = sp()
    v, w = space.generator("aC"), space.generator("q0")
    one, nan_one = weyl_word(v, 0.5), _raw((v, bad))
    pair, nan_pair = weyl_add(one, weyl_word(w)), _raw((v, 0.5 + 0j), (w, bad))
    for A, B in [(nan_one, one), (one, nan_one), (nan_pair, pair), (pair, nan_pair),
                 (nan_one, weyl_word(w)), (nan_pair, IDENTITY)]:
        with pytest.raises(errors.NonFiniteDefect):
            max_coeff_distance(A, B)
    assert max_coeff_distance(pair, one) == 1.0


def test_a_nan_coefficient_keeps_its_term():
    """weyl_word and WeylElement keep a NaN coefficient's term, which the
    keep test abs(a) >= COEFF_EPS dropped (False for NaN), so a distance
    refuses it on the one-term and on the general path."""
    space = sp()
    v, w = space.generator("aC"), space.generator("c0")
    for A in (weyl_word(v, complex(math.nan, 0)), WeylElement([(v, math.nan)]),
              WeylElement([(v, 1.0), (v, math.nan)])):
        (key, a), = A.terms()
        assert key == v and cmath.isnan(a)
        with pytest.raises(errors.NonFiniteDefect):
            max_coeff_distance(A, weyl_word(v))
    pair = WeylElement([(v, math.nan), (w, 1.0)])
    assert [key for key, _ in pair.terms()] == [v, w]
    with pytest.raises(errors.NonFiniteDefect):
        max_coeff_distance(pair, weyl_add(weyl_word(v), weyl_word(w)))


def test_multi_term_products_sort_as_the_items_order():
    """Products of 2- and 3-term elements whose keys share leading atoms
    with coefficients over 1, 2, 3 and 6: the same keys in the same order,
    and the same coefficient bits, as the dict summed and sorted by
    `items()`.  A sort by the raw numerators, without the common
    denominator, puts 3/2 before 5/6 and fails."""
    space = sp()
    T, aC, q0 = (space.generator(name) for name in ("T", "aC", "q0"))
    A = WeylElement([(T.scale(Fraction(1, 2)) + aC, 1 + 1j), (T.scale(Fraction(2, 3)), 2.0)])
    B = WeylElement([(T.scale(Fraction(1, 6)) + q0, 1j), (T, 0.5)])
    cases = [(A, B)]
    leads = sorted({Fraction(n, d) for n in range(-6, 7) for d in (1, 2, 3, 6)})
    rng = np.random.default_rng(21)
    for size in (2, 3):
        for _ in range(25):
            elements = []
            for _ in range(2):
                terms = []
                for i in rng.choice(len(leads), size, replace=False):
                    tail = space.generator(str(rng.choice(["aC", "q0", "c1", "n1"])))
                    terms.append((T.scale(leads[i]) + tail.scale(Fraction(int(rng.integers(3)), 2)),
                                  complex(rng.standard_normal(), rng.standard_normal())))
                elements.append(WeylElement(terms))
            cases.append(tuple(elements))
    for A, B in cases:
        assert len(A.terms()) > 1 and len(B.terms()) > 1
        want = _reference_mul(space, A, B)
        assert _bits(weyl_mul(space, A, B).terms()) == _bits(want)
    # the hand-made pair: leading coefficients 2/3, 5/6, 3/2, 5/3 in that order
    lead = [v.items()[0] for v, _ in weyl_mul(space, *cases[0]).terms()]
    assert lead == [(0, Fraction(2, 3)), (0, Fraction(5, 6)), (0, Fraction(3, 2)),
                    (0, Fraction(5, 3))]


# --- staged crossed product --------------------------------------------------


def test_staged_vs_global_product():
    space = sp()
    cp = CrossedProduct(space, space.generator("T"))
    rng = np.random.default_rng(11)
    for _ in range(40):
        # observable parts in Vb: zero c and q charges
        h1 = sp().generator("aC").scale(Fraction(int(rng.integers(-2, 3)), 2))
        h2 = sp().generator("aR").scale(Fraction(int(rng.integers(-2, 3)), 2)) + sp().generator("n1").scale(
            Fraction(int(rng.integers(-1, 2)))
        )
        x = Staged(1.0 + 0j, h1, Fraction(int(rng.integers(-2, 3))), Fraction(int(rng.integers(-2, 3))))
        y = Staged(0.5 - 0.5j, h2, Fraction(int(rng.integers(-2, 3))), Fraction(int(rng.integers(-2, 3))))
        staged = cp.embed(cp.product(x, y))
        direct = weyl_mul(space, cp.embed(x), cp.embed(y))
        assert max_coeff_distance(staged, direct) < 1e-10


def test_staged_inverse():
    space = sp()
    cp = CrossedProduct(space, space.generator("T"))
    x = Staged(2.0j, space.generator("aL"), Fraction(3), Fraction(-2))
    prod = cp.product(x, staged_inverse(cp, x))
    assert prod.h.is_zero() and prod.c == 0 and prod.n == 0
    assert abs(prod.zeta - 1.0) < 1e-12
    prod2 = cp.product(staged_inverse(cp, x), x)
    assert abs(prod2.zeta - 1.0) < 1e-12


def test_staged_adjoint_action_phase():
    # conjugating a charge-plane word by another gives the sigma_L phase
    space = sp()
    cp = CrossedProduct(space, space.generator("T"))
    s = Staged(1.0, ZERO, Fraction(1), Fraction(2))
    m = Staged(1.0, ZERO, Fraction(0), Fraction(3))
    out = staged_conjugate(cp, s, m)
    # sigma_L((1,2),(0,3)) = 1*3 - 0*2 = 3
    assert abs(out.zeta - cmath.exp(-3j)) < 1e-12
    assert out.c == 0 and out.n == 3


# --- element literals ---------------------------------------------------------


def test_parse_single_word():
    space = sp()
    A = parse_element(space, "2.0+0.0i * W[T + 3/2 q0]")
    (v, a), = A.terms()
    assert abs(a - 2.0) < 1e-15
    assert v == space.generator("T") + space.generator("q0").scale(Fraction(3, 2))


def test_parse_sums_signs_and_identity():
    space = sp()
    A = parse_element(space, "W[0] - 0.5i * W[c1] + W[aC - q3]")
    assert len(A.terms()) == 3
    coeffs = {v: a for v, a in A.terms()}
    assert coeffs[ZERO] == 1.0
    assert coeffs[space.generator("c1")] == -0.5j
    assert coeffs[space.generator("aC") - space.generator("q3")] == 1.0


def test_parse_leading_minus():
    space = sp()
    A = parse_element(space, "-W[q0]")
    (v, a), = A.terms()
    assert a == -1.0


def test_parse_errors():
    space = sp()
    for bad in ("", "W[nope]", "W[q0", "2.0 ** W[q0]", "W[q0] * W[q0]", "xyz",
                # a stacked or dangling sign is refused, not dropped
                "W[aC-+q0]", "W[aC--q0]", "W[-+q0]", "W[aC] -", "W[aC] +"):
        with pytest.raises((errors.ElementParseError, errors.UnknownGenerator)):
            parse_element(space, bad)


_gap = st.sampled_from(["", " ", "  "])


@st.composite
def _body(draw):
    """A W[...] body and its combination: `0`, or 1-4 signed rational
    generator terms, with random spacing."""
    if draw(st.integers(0, 4)) == 0:
        return f"{draw(_gap)}0{draw(_gap)}", {}
    text, combo = draw(_gap), {}
    names = draw(st.lists(st.sampled_from(GENS), min_size=1, max_size=4, unique=True))
    for i, name in enumerate(names):
        sign = draw(st.sampled_from(["+", "-"] if i else ["", "+", "-"]))
        p, q = draw(st.integers(0, 9)), draw(st.integers(1, 9))
        coeff, value = draw(st.sampled_from(
            [("", Fraction(1)), (f"{p} ", Fraction(p)), (f"{p}/{q} ", Fraction(p, q))]
        ))
        if coeff:
            coeff += draw(_gap)
        text += f"{draw(_gap) if i else ''}{sign}{draw(_gap)}{coeff}{name}{draw(_gap)}"
        combo[name] = -value if sign == "-" else value
    return text, combo


@st.composite
def _summand(draw):
    """A summand's head and coefficient: none, a leading `-`, or a complex
    coefficient followed by `*`."""
    form = draw(st.sampled_from(["none", "minus", "complex"]))
    if form == "none":
        return "", 1 + 0j
    if form == "minus":
        return "-", -1 + 0j
    re_, im = (draw(st.integers(-40, 40)) / 4 for _ in range(2))
    text, value = draw(st.sampled_from(
        [(f"{re_}", complex(re_)), (f"{im}i", complex(0, im)), (f"{re_}{im:+}i", complex(re_, im))]
    ))
    return f"{text}{draw(_gap)}*{draw(_gap)}", value


@st.composite
def _literal(draw):
    """Element literal text with 1-4 summands, and its (combo, coefficient) terms."""
    text, terms = draw(_gap), []
    for i in range(draw(st.integers(1, 4))):
        sign = 1.0
        if i:
            sep = draw(st.sampled_from(["+", "-"]))
            sign = -1.0 if sep == "-" else 1.0
            text += f"{draw(_gap)}{sep}{draw(_gap)}"
        head, coeff = draw(_summand())
        body, combo = draw(_body())
        text += f"{head}W[{body}]"
        terms.append((combo, sign * coeff))
    return text + draw(_gap), terms


@settings(max_examples=300, deadline=None)
@given(case=_literal())
def test_parse_element_matches_the_direct_element(case):
    space = sp()
    text, terms = case
    expected = WeylElement([(space.vector(combo), coeff) for combo, coeff in terms])
    assert parse_element(space, text) == expected, text
