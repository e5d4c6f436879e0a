"""Named verification suites and their deterministic JSON reports.

Each suite draws its randomness from a generator seeded by (seed, suite
index), so any subset of suites reproduces the exact values it would produce
inside the combined run.  Reports are order-normalized and serialized with
sorted keys; wall-clock timing is returned to the caller but never written
into the report, so identical seeds give byte-identical files.

Check records carry the measured value, the tolerance, and a comparison mode:
"at-most" passes when value <= tolerance (defect bounds, exact identities at
tolerance 0) and "at-least" passes when value >= tolerance (positivity floors
and counterexample probes that must be visibly nonzero).
"""

from __future__ import annotations

import cmath
import json
import math
import time
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .chiral import dalembert, roundtrip_error, sigma_decomposed
from .errors import WeylnetError
from .funcspace import DEFAULT_GRID, Grid, chiral_norm_sq
from .gns import (
    apply_elementary,
    basis,
    non_regularity_witness,
    norm_distance,
    phi_n_apply,
    sector_trace,
)
from .nets import (
    NET_LABEL,
    asymptotics,
    diagram_check,
    fixed_point_project,
    locality_report,
    make_sector,
    net_generators,
    sector_apply,
)
from .registry import load_registry
from .states import (
    field_f,
    gram_psd,
    regular_substitute_probe,
    state_coincidence_check,
)
from .symplectic import Space, SymVector, ZERO, sigma_plane
from .weyl import (
    IDENTITY,
    CrossedProduct,
    Staged,
    WeylElement,
    cocycle_defect,
    max_coeff_distance,
    weyl_add,
    weyl_mul,
    weyl_scale,
    weyl_star,
    weyl_word,
)

SCHEMA = "weylnet-report/1"


def _record(name: str, value: float, tolerance: float, anchor: str, mode: str = "at-most") -> dict:
    if mode == "at-most":
        ok = value <= tolerance
    elif mode == "at-least":
        ok = value >= tolerance
    else:
        raise ValueError(f"unknown comparison mode {mode!r}")
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "value": float(value),
        "tolerance": float(tolerance),
        "mode": mode,
        "anchor": anchor,
    }


def _rand_vector(space: Space, rng, pool: Sequence[str], n_terms: int = 2) -> SymVector:
    v = ZERO
    for name in rng.choice(list(pool), size=min(n_terms, len(pool)), replace=False):
        num = int(rng.integers(-2, 3))
        den = int(rng.integers(1, 3))
        v = v + space.generator(str(name)).scale(Fraction(num, den))
    return v


def _rand_word(space: Space, rng, pool: Sequence[str], n_keys: int = 2) -> WeylElement:
    out = weyl_word(_rand_vector(space, rng, pool))
    for _ in range(n_keys - 1):
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        out = weyl_add(out, weyl_word(_rand_vector(space, rng, pool), coeff))
    return out


# ---------------------------------------------------------------------------
# suites


def suite_weyl_axioms(space: Space, rng) -> List[dict]:
    pool = space.generator_names()
    worst = {"associativity": 0.0, "unitarity": 0.0, "involution": 0.0, "exchange": 0.0}
    worst_cocycle = 0.0
    for _ in range(1000):
        r = _rand_vector(space, rng, pool)
        s = _rand_vector(space, rng, pool)
        t = _rand_vector(space, rng, pool)
        A, B, C = weyl_word(r), weyl_word(s), weyl_word(t)
        worst["associativity"] = max(
            worst["associativity"],
            max_coeff_distance(
                weyl_mul(space, weyl_mul(space, A, B), C),
                weyl_mul(space, A, weyl_mul(space, B, C)),
            ),
        )
        worst["unitarity"] = max(
            worst["unitarity"],
            max_coeff_distance(weyl_mul(space, A, weyl_word(-r)), IDENTITY),
        )
        worst["involution"] = max(
            worst["involution"],
            max_coeff_distance(
                weyl_star(weyl_mul(space, A, B)),
                weyl_mul(space, weyl_star(B), weyl_star(A)),
            ),
        )
        worst["exchange"] = max(
            worst["exchange"],
            max_coeff_distance(
                weyl_mul(space, A, B),
                weyl_scale(
                    weyl_mul(space, B, A), cmath.exp(-1j * space.sigma(r, s))
                ),
            ),
        )
        worst_cocycle = max(worst_cocycle, cocycle_defect(space, r, s, t))

    checks = [
        _record(
            "product-associativity",
            worst["associativity"],
            1e-12,
            "(W(r)W(s))W(t) = W(r)(W(s)W(t)), 1000 triples",
        ),
        _record(
            "product-unitarity",
            worst["unitarity"],
            1e-12,
            "W(v)W(-v) = 1",
        ),
        _record(
            "involution-antihomomorphism",
            worst["involution"],
            1e-12,
            "(W(v)W(w))* = W(w)* W(v)*",
        ),
        _record(
            "exchange-relation",
            worst["exchange"],
            1e-12,
            "W(v)W(v') = e^{-i sigma(v,v')} W(v')W(v)",
        ),
        _record(
            "phase-cocycle-identity",
            worst_cocycle,
            1e-9,
            "sigma(s,t) + sigma(r,s+t) = sigma(r,s) + sigma(r+s,t), 1000 triples",
        ),
    ]

    # two-stage presentation vs the embedded global product
    cp = CrossedProduct(space, space.generator("T"))
    obs_pool = ["aL", "aC", "aR"]
    worst_staged = 0.0
    for _ in range(200):
        xs = []
        for _ in range(2):
            h = _rand_vector(space, rng, obs_pool)
            c = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))
            n = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))
            zeta = complex(rng.standard_normal(), rng.standard_normal())
            xs.append(Staged(zeta, h, c, n))
        staged = cp.embed(cp.product(xs[0], xs[1]))
        globl = weyl_mul(space, cp.embed(xs[0]), cp.embed(xs[1]))
        worst_staged = max(worst_staged, max_coeff_distance(staged, globl))
    checks.append(
        _record(
            "staged-product-agreement",
            worst_staged,
            1e-10,
            "zeta W(h)W(l) two-stage law embeds to the global product, 200 pairs",
        )
    )
    return checks


def suite_psi_t(space: Space, rng) -> List[dict]:
    pool = space.generator_names()
    T = space.generator("T")
    T2 = space.generator("T3")
    worst_sigma = 0.0
    charge_defect = 0.0
    for _ in range(200):
        v = _rand_vector(space, rng, pool)
        w = _rand_vector(space, rng, pool)
        iv = space.psi_T(v, T)
        iw = space.psi_T(w, T)
        lhs = space.sigma(v, w)
        rhs = (
            space.sigma(iv.tangent, iw.tangent)
            + sigma_plane(iv.l_part, iw.l_part)
            + sigma_plane(iv.m_part, iw.m_part)
        )
        worst_sigma = max(worst_sigma, abs(lhs - rhs))
    # charge coordinates of the splitting are regularizer-independent, exactly
    for name in pool:
        g = space.generator(name)
        i1 = space.psi_T(g, T)
        i2 = space.psi_T(g, T2)
        if i1.l_part[0] != i2.l_part[0] or i1.m_part[1] != i2.m_part[1]:
            charge_defect = 1.0
    return [
        _record(
            "sigma-splitting",
            worst_sigma,
            1e-6,
            "sigma = sigma_tangent + sigma_plane(l) + sigma_plane(m), 200 pairs",
        ),
        _record(
            "charge-coordinates-regularizer-independent",
            charge_defect,
            0.0,
            "F_c and F_q coordinates agree exactly for regularizers T and T3",
        ),
    ]


def suite_states_positivity(space: Space, rng) -> List[dict]:
    pool = space.generator_names()
    T = space.generator("T")
    spec = field_f(T)
    words = [IDENTITY] + [_rand_word(space, rng, pool) for _ in range(19)]
    M, min_eig = gram_psd(space, spec, words)
    norm = float(np.linalg.norm(M, 2))
    checks = [
        _record(
            "gram-min-eigenvalue",
            min_eig,
            -1e-8 * max(1.0, norm),
            "20-word Gram matrix of the charge-delta field state is PSD",
            mode="at-least",
        ),
        _record(
            "regular-substitute-hermiticity-violation",
            regular_substitute_probe(space, T),
            1e-6,
            "Gaussian weight in place of the charge delta breaks hermiticity",
            mode="at-least",
        ),
    ]
    probe_words = [_rand_word(space, rng, pool) for _ in range(100)]
    rep = state_coincidence_check(space, T, probe_words)
    checks.append(
        _record(
            "product-state-coincidence",
            rep["max_discrepancy"],
            1e-10,
            "direct charge-delta state equals the ordered-product state, 100 words",
        )
    )
    return checks


def suite_chiral(space: Space, rng) -> List[dict]:
    pool = space.generator_names()
    worst_round = 0.0
    charge_defect = 0.0
    for _ in range(10):
        v = _rand_vector(space, rng, pool, n_terms=3)
        pair = dalembert(space, v)
        ch = space.charges(v)
        if ch.c != pair.c_plus - pair.c_minus or ch.q != pair.c_plus + pair.c_minus:
            charge_defect = 1.0
        worst_round = max(worst_round, roundtrip_error(space, v, pair))
    worst_sigma = 0.0
    for _ in range(200):
        v = _rand_vector(space, rng, pool)
        w = _rand_vector(space, rng, pool)
        worst_sigma = max(
            worst_sigma,
            abs(space.sigma(v, w) - sigma_decomposed(dalembert(space, v), dalembert(space, w))),
        )
    worst_fock = 0.0
    va_pool = ["aL", "aC", "aR"]
    done = 0
    while done < 20:
        v = _rand_vector(space, rng, va_pool, n_terms=3)
        if v.is_zero():
            continue
        done += 1
        pair = dalembert(space, v)
        lhs = space.fock_norm_sq(v)
        rhs = 2 * chiral_norm_sq(pair.theta_plus) + 2 * chiral_norm_sq(pair.theta_minus)
        worst_fock = max(worst_fock, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return [
        _record(
            "mover-roundtrip",
            worst_round,
            1e-8,
            "data -> (theta_+, theta_-) -> data, max pointwise error, 10 vectors",
        ),
        _record(
            "chiral-charge-relations",
            charge_defect,
            0.0,
            "F_c = c_+ - c_- and F_q = c_+ + c_-, exact",
        ),
        _record(
            "sigma-chiral-splitting",
            worst_sigma,
            1e-5,
            "sigma = sigma_+ + sigma_- + sigma_inf, 200 pairs",
        ),
        _record(
            "fock-norm-mover-identity",
            worst_fock,
            1e-4,
            "||v||_a^2 = 2||theta_+||^2 + 2||theta_-||^2 relative, 20 decaying vectors",
        ),
    ]


def suite_gns(space: Space, rng) -> List[dict]:
    worst_eigen = 0.0
    for _ in range(50):
        c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
        n = float(rng.standard_normal())
        got = apply_elementary(0, n, basis(c))
        expected = basis(c).scale(cmath.exp(1j * n * float(c)))
        worst_eigen = max(worst_eigen, (got - expected).norm())

    phi_defect = 0.0
    for c in (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(9, 2)):
        if (phi_n_apply(basis(c)) - basis(c).scale(float(c))).norm() != 0.0:
            phi_defect = 1.0

    e = space.unit_vector()
    A0 = space.slot_part(space.generator("T"), 0)

    def plane_word():
        out = None
        for _ in range(2):
            c = Fraction(int(rng.integers(-2, 3)), 2)
            n = Fraction(int(rng.integers(-3, 4)), 2)
            term = weyl_word(
                A0.scale(c) + e.scale(n),
                complex(rng.standard_normal(), rng.standard_normal()),
            )
            out = term if out is None else weyl_add(out, term)
        return out

    worst_trace = 0.0
    for _ in range(200):
        A, B = plane_word(), plane_word()
        lhs = sector_trace(space, weyl_mul(space, A, B))
        rhs = sector_trace(space, weyl_mul(space, B, A))
        worst_trace = max(worst_trace, abs(lhs - rhs))

    c = Fraction(1)
    n1, n2 = 2.0, 0.0
    target = math.pi / (n1 - n2) - float(c) / 2.0
    probe = Fraction(round(target * 10**12), 10**12)
    dist = norm_distance((c, n1), (c, n2), [probe])

    witness_defect = 0.0
    lams = [Fraction(0), Fraction(1, 10**6), Fraction(-1, 10**9), Fraction(3)]
    vals = non_regularity_witness(Fraction(1), lams)
    for lam, val in vals.items():
        want = 1 if lam == 0 else 0
        witness_defect = max(witness_defect, abs(val - want))

    return [
        _record(
            "central-eigenrelation",
            worst_eigen,
            1e-12,
            "pi(W(0,n))|c> = e^{inc}|c>, 50 samples",
        ),
        _record(
            "charge-operator-eigenrelation",
            phi_defect,
            0.0,
            "Phi_N |c> = c |c>, exact",
        ),
        _record(
            "trace-property",
            worst_trace,
            1e-12,
            "tr(AB) = tr(BA) on the elementary charge plane, 200 pairs",
        ),
        _record(
            "distinct-charge-norm-distance",
            abs(dist - 2.0),
            1e-9,
            "||pi(W(l1)) - pi(W(l2))|| attains 2 on a two-charge subspace",
        ),
        _record(
            "non-regularity-witness",
            witness_defect,
            0.0,
            "<0|pi(W(lambda c, 0))|0> is the indicator of lambda = 0, exact",
        ),
    ]


def _interval(a: str, b: str):
    from .funcspace import Interval

    return Interval(Fraction(a), Fraction(b))


def suite_nets(space: Space, rng) -> List[dict]:
    I1 = _interval("-21", "-4")
    I2 = _interval("4", "21")
    J1 = _interval("-17/8", "-7/8")
    J2 = _interval("7/8", "17/8")
    I_MID = _interval("-9/8", "9/8")
    checks = []

    rep_a = locality_report(space, "A", I1, I2)
    rep_b = locality_report(space, "B", I1, I2)
    rep_c = locality_report(space, "C", J1, J2)
    checks.append(
        _record(
            "locality-observable-nets",
            max(rep_a["max_sigma"], rep_b["max_sigma"], rep_c["max_sigma"]),
            1e-6,
            "sigma vanishes between disjointly localized A/B/C generators",
        )
    )
    rep_f = locality_report(space, "F", J1, J2)
    rep_e = locality_report(space, "E", J1, J2)
    checks.append(
        _record(
            "field-net-disjoint-phase",
            max(rep_f["max_defect"], rep_e["max_defect"]),
            1e-6,
            "disjoint sigma equals G_minus F_c - F_plus G_c for E/F generators",
        )
    )

    F = space.generator("q0")
    rho = make_sector(space, F, I_MID)
    f_minus, f_plus = asymptotics(space, F)
    worst_soliton = 0.0
    for name, side in (("c1", f_plus), ("c2", f_minus)):
        g = space.generator(name)
        gc = space.charges(g).c
        out = sector_apply(space, rho, weyl_word(g))
        got = out.terms()[0][1]
        worst_soliton = max(worst_soliton, abs(got - cmath.exp(-1j * float(side) * float(gc))))
    checks.append(
        _record(
            "soliton-phases",
            worst_soliton,
            1e-6,
            "disjoint charge carriers pick up e^{-i F_side G_c} on each side",
        )
    )

    filter_defect = 0.0
    for sub, kind in (("G_q", "C"), ("G_c", "E"), ("G_full", "B")):
        for g in net_generators(space, "F", I_MID):
            word = weyl_word(g)
            invariant = fixed_point_project(space, word, sub) == word
            if invariant != space.in_space(g, NET_LABEL[kind]):
                filter_defect = 1.0
    checks.append(
        _record(
            "gauge-fixed-point-filters",
            filter_defect,
            0.0,
            "charge filters reproduce the intermediate net memberships exactly",
        )
    )

    diagram = diagram_check(space, space.generator("T0"), I_MID)
    checks.append(
        _record(
            "splitting-diagram",
            0.0 if diagram["passed"] else 1.0,
            0.0,
            "every clause of the splitting/fixed-point diagram holds",
        )
    )
    return checks


SUITES: Dict[str, Callable[[Space, np.random.Generator], List[dict]]] = {
    "weyl-axioms": suite_weyl_axioms,
    "psi-T": suite_psi_t,
    "states-positivity": suite_states_positivity,
    "chiral": suite_chiral,
    "gns": suite_gns,
    "nets": suite_nets,
}

_SUITE_INDEX = {name: i for i, name in enumerate(SUITES)}


def run_suite(
    suite: str,
    seed: int,
    registry_path: Optional[str] = None,
    grid: Grid = DEFAULT_GRID,
    space: Optional[Space] = None,
) -> dict:
    """Execute a named suite (or "all") and return the report dict.

    A suite that raises a WeylnetError becomes one failed record with status
    "error", the exception class and its message; the other suites still run.
    The report's `grid` and `registry` describe the Space the suites ran on,
    so a given `space` overrides `registry_path` and `grid`.

    The report carries no timing, so identical inputs give identical bytes;
    the wall-clock duration is returned under the "_duration" key, which
    serialize_report strips.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if space is None:
        space = load_registry(registry_path, grid)
    names = list(SUITES) if suite == "all" else [suite]
    started = time.monotonic()
    sections = []
    for name in names:
        rng = np.random.default_rng([seed, _SUITE_INDEX[name]])
        try:
            checks = SUITES[name](space, rng)
        except WeylnetError as e:
            error = {"name": name, "status": "error", "error": type(e).__name__, "message": str(e)}
            checks = [error]
        sections.append(
            {
                "name": name,
                "checks": checks,
                "passed": all(c["status"] == "pass" for c in checks),
            }
        )
    duration = time.monotonic() - started
    n_pass = sum(1 for s in sections for c in s["checks"] if c["status"] == "pass")
    n_total = sum(len(s["checks"]) for s in sections)
    return {
        "schema": SCHEMA,
        "suite": suite,
        "seed": seed,
        "registry": space.source,
        "grid": {"points": space.grid.n, "window": [str(space.grid.x0), str(space.grid.x1)]},
        "sections": sections,
        "counts": {"pass": n_pass, "fail": n_total - n_pass, "total": n_total},
        "passed": n_pass == n_total,
        "_duration": duration,
    }


def serialize_report(report: dict) -> str:
    clean = {k: v for k, v in report.items() if not k.startswith("_")}
    return json.dumps(clean, indent=2, sort_keys=True) + "\n"
