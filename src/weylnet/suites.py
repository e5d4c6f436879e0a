"""The table of checks, the suites that run it, and their JSON reports.

`CHECKS` lists every check in report order.  A `Check` holds its suite, its
name, tolerance, comparison mode and anchor, and a `measure(space, rng, ctx)`
that returns the value.  A bound that scales with the data is written as a
(value, scale) pair: the record's tolerance is then `tolerance * scale`.
Mode "at-most" passes when value <= tolerance (defect bounds, exact
identities at tolerance 0); "at-least" passes when value >= tolerance
(positivity floors and counterexample probes that must be visibly nonzero).
`Check.passes` is the one place a measurement meets its bound: the library
functions return numbers, and the CLI's verdicts look their check up in
`CHECK_BY_NAME`.

A suite runs its checks in table order on one generator seeded by (seed,
suite index), so any subset of suites reproduces the exact values it would
produce inside the combined run.  A loop that feeds several checks runs once
per suite run, when first read, and keeps its result or its error in `ctx`.
A check that raises a WeylnetError becomes that check's "error" record, and
the suite's other checks still run.  The report carries no timing and is
serialized with sorted keys, so identical seeds give byte-identical files.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from .chiral import dalembert, roundtrip_error, sigma_split, split_table
from .errors import WeylnetError
from .funcspace import DEFAULT_GRID, Grid, Interval, chiral_norm_sq
from .gns import (
    apply_elementary, basis, non_regularity_witness, norm_distance, phi_n_apply, sector_trace,
)
from .nets import (
    FIXED_POINT_NETS,
    NET_LABEL,
    diagram_check,
    fixed_point_project,
    locality_report,
    make_sector,
    net_generators,
    sector_apply,
)
from .registry import load_registry
from .states import field_f, gram_psd, regular_substitute_probe, state_coincidence_check
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

# the intervals of the nets suite, tuned to the default [-32, 32] grid
I1 = Interval(Fraction(-21), Fraction(-4))
I2 = Interval(Fraction(4), Fraction(21))
J1 = Interval(Fraction(-17, 8), Fraction(-7, 8))
J2 = Interval(Fraction(7, 8), Fraction(17, 8))
I_MID = Interval(Fraction(-9, 8), Fraction(9, 8))


@dataclass(frozen=True)
class Check:
    suite: str
    name: str
    tolerance: float
    anchor: str
    measure: Callable[[Space, np.random.Generator, dict], object]
    mode: str = "at-most"

    def __post_init__(self):
        if self.mode not in ("at-most", "at-least"):
            raise ValueError(f"unknown comparison mode {self.mode!r}")

    def passes(self, value: float, scale: float = 1.0) -> bool:
        """Whether `value` is within the bound `tolerance * scale`, inclusive."""
        tolerance = self.tolerance * scale
        return value <= tolerance if self.mode == "at-most" else value >= tolerance

    def run(self, space: Space, rng: np.random.Generator, ctx: dict) -> dict:
        try:
            out = self.measure(space, rng, ctx)
        except WeylnetError as e:
            error = type(e).__name__
            return {"name": self.name, "status": "error", "error": error, "message": str(e)}
        value, scale = out if isinstance(out, tuple) else (out, 1.0)
        return {
            "name": self.name,
            "status": "pass" if self.passes(value, scale) else "fail",
            "value": float(value),
            "tolerance": float(self.tolerance * scale),
            "mode": self.mode,
            "anchor": self.anchor,
        }


def _shared(loop: Callable[[Space, np.random.Generator], dict]):
    """Read `loop(space, rng)` as a measure would: the loop runs at the first
    read of a suite run, and later reads get its result, or the WeylnetError
    it raised, from ctx without running it again."""

    def read(space: Space, rng: np.random.Generator, ctx: dict) -> dict:
        if loop not in ctx:
            try:
                ctx[loop] = loop(space, rng)
            except WeylnetError as e:
                ctx[loop] = e
        if isinstance(ctx[loop], WeylnetError):
            raise ctx[loop]
        return ctx[loop]

    return read


def _worst(loop, key: str):
    return lambda space, rng, ctx: loop(space, rng, ctx)[key]


def _rand_vector(space: Space, rng, pool: Sequence[str], n_terms: int = 2) -> SymVector:
    v = ZERO
    for i in rng.choice(len(pool), size=min(n_terms, len(pool)), replace=False):
        num = int(rng.integers(-2, 3))
        den = int(rng.integers(1, 3))
        if num:
            g = space.generator(pool[i])
            v = v + SymVector([(a, n * num) for a, n in g._nums], g._den * den)
    return v


def _rand_word(space: Space, rng, pool: Sequence[str]) -> WeylElement:
    """W(v) + zeta W(w) with random v, w from `pool` and a random complex zeta."""
    first = weyl_word(_rand_vector(space, rng, pool))
    coeff = complex(rng.standard_normal(), rng.standard_normal())
    return weyl_add(first, weyl_word(_rand_vector(space, rng, pool), coeff))


# ---------------------------------------------------------------------------
# measures, in report order


@_shared
def _axiom_defects(space: Space, rng) -> dict:
    pool = space.generator_names()
    worst = dict.fromkeys(("associativity", "unitarity", "involution", "exchange", "cocycle"), 0.0)
    for _ in range(1000):
        r, s, t = (_rand_vector(space, rng, pool) for _ in range(3))
        A, B, C = weyl_word(r), weyl_word(s), weyl_word(t)
        AB = weyl_mul(space, A, B)
        defects = {
            "associativity": max_coeff_distance(
                weyl_mul(space, AB, C),
                weyl_mul(space, A, weyl_mul(space, B, C)),
            ),
            "unitarity": max_coeff_distance(weyl_mul(space, A, weyl_word(-r)), IDENTITY),
            "involution": max_coeff_distance(
                weyl_star(AB),
                weyl_mul(space, weyl_star(B), weyl_star(A)),
            ),
            "exchange": max_coeff_distance(
                AB,
                weyl_scale(weyl_mul(space, B, A), cmath.exp(-1j * space.sigma(r, s))),
            ),
            "cocycle": cocycle_defect(space, r, s, t),
        }
        worst = {key: max(worst[key], d) for key, d in defects.items()}
    return worst


def _staged_product(space: Space, rng, ctx) -> float:
    """Two-stage presentation against the embedded global product."""
    cp = CrossedProduct(space, space.generator("T"))
    worst = 0.0
    for _ in range(200):
        xs = []
        for _ in range(2):
            h = _rand_vector(space, rng, ["aL", "aC", "aR"])
            c = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))
            n = Fraction(int(rng.integers(-2, 3)), int(rng.integers(1, 3)))
            zeta = complex(rng.standard_normal(), rng.standard_normal())
            xs.append(Staged(zeta, h, c, n))
        staged = cp.embed(cp.product(xs[0], xs[1]))
        globl = weyl_mul(space, cp.embed(xs[0]), cp.embed(xs[1]))
        worst = max(worst, max_coeff_distance(staged, globl))
    return worst


def _sigma_splitting(space: Space, rng, ctx) -> float:
    pool = space.generator_names()
    T = space.generator("T")
    worst = 0.0
    for _ in range(200):
        v = _rand_vector(space, rng, pool)
        w = _rand_vector(space, rng, pool)
        iv = space.psi_T(v, T)
        iw = space.psi_T(w, T)
        rhs = (
            space.sigma(iv.tangent, iw.tangent)
            + sigma_plane(iv.l_part, iw.l_part)
            + sigma_plane(iv.m_part, iw.m_part)
        )
        worst = max(worst, abs(space.sigma(v, w) - rhs))
    return worst


def _charge_coordinates(space: Space, rng, ctx) -> float:
    """1 unless the charge coordinates of the splitting agree exactly for T and T3."""
    T, T3 = space.generator("T"), space.generator("T3")
    for name in space.generator_names():
        g = space.generator(name)
        i1, i3 = space.psi_T(g, T), space.psi_T(g, T3)
        if i1.l_part[0] != i3.l_part[0] or i1.m_part[1] != i3.m_part[1]:
            return 1.0
    return 0.0


def _gram_min_eigenvalue(space: Space, rng, ctx):
    pool = space.generator_names()
    words = [IDENTITY] + [_rand_word(space, rng, pool) for _ in range(19)]
    M, min_eig = gram_psd(space, field_f(space.generator("T")), words)
    return min_eig, max(1.0, float(np.linalg.norm(M, 2)))


def _state_coincidence(space: Space, rng, ctx) -> float:
    pool = space.generator_names()
    words = [_rand_word(space, rng, pool) for _ in range(100)]
    return state_coincidence_check(space, space.generator("T"), words)


@_shared
def _mover_defects(space: Space, rng) -> dict:
    pool = space.generator_names()
    worst = {"roundtrip": 0.0, "charges": 0.0}
    for _ in range(10):
        v = _rand_vector(space, rng, pool, n_terms=3)
        pair = dalembert(space, v)
        ch = space.charges(v)
        if ch.c != pair.c_plus - pair.c_minus or ch.q != pair.c_plus + pair.c_minus:
            worst["charges"] = 1.0
        worst["roundtrip"] = max(worst["roundtrip"], roundtrip_error(space, v, pair))
    return worst


def _sigma_chiral_splitting(space: Space, rng, ctx) -> float:
    pool = space.generator_names()
    table = split_table(space)
    worst = 0.0
    for _ in range(200):
        v = _rand_vector(space, rng, pool)
        w = _rand_vector(space, rng, pool)
        worst = max(worst, abs(space.sigma(v, w) - sigma_split(table, v, w)))
    return worst


def _fock_norm_mover_identity(space: Space, rng, ctx) -> float:
    worst = 0.0
    done = 0
    while done < 20:
        v = _rand_vector(space, rng, ["aL", "aC", "aR"], n_terms=3)
        if v.is_zero():
            continue
        done += 1
        pair = dalembert(space, v)
        lhs = space.fock_norm_sq(v)
        rhs = 2 * chiral_norm_sq(pair.theta_plus) + 2 * chiral_norm_sq(pair.theta_minus)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
    return worst


def _central_eigenrelation(space: Space, rng, ctx) -> float:
    worst = 0.0
    for _ in range(50):
        c = Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
        n = float(rng.standard_normal())
        got = apply_elementary(0, n, basis(c))
        worst = max(worst, (got - basis(c).scale(cmath.exp(1j * n * float(c)))).norm())
    return worst


def _charge_operator(space: Space, rng, ctx) -> float:
    charges = (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(9, 2))
    defects = [(phi_n_apply(basis(c)) - basis(c).scale(float(c))).norm() for c in charges]
    return float(any(d != 0.0 for d in defects))


def _plane_word(rng, A0: SymVector, e: SymVector) -> WeylElement:
    """Two random terms on the elementary charge plane spanned by A0 and e."""
    out = None
    for _ in range(2):
        c = Fraction(int(rng.integers(-2, 3)), 2)
        n = Fraction(int(rng.integers(-3, 4)), 2)
        zeta = complex(rng.standard_normal(), rng.standard_normal())
        term = weyl_word(A0.scale(c) + e.scale(n), zeta)
        out = term if out is None else weyl_add(out, term)
    return out


def _trace_property(space: Space, rng, ctx) -> float:
    plane = (space.slot_part(space.generator("T"), 0), space.unit_vector())
    worst = 0.0
    for _ in range(200):
        A, B = _plane_word(rng, *plane), _plane_word(rng, *plane)
        lhs = sector_trace(space, weyl_mul(space, A, B))
        rhs = sector_trace(space, weyl_mul(space, B, A))
        worst = max(worst, abs(lhs - rhs))
    return worst


def _norm_distance(space: Space, rng, ctx) -> float:
    c, n1, n2 = Fraction(1), 2.0, 0.0
    probe = Fraction(round((math.pi / (n1 - n2) - float(c) / 2.0) * 10**12), 10**12)
    return abs(norm_distance((c, n1), (c, n2), [probe]) - 2.0)


def _non_regularity_witness(space: Space, rng, ctx) -> float:
    lams = [Fraction(0), Fraction(1, 10**6), Fraction(-1, 10**9), Fraction(3)]
    vals = non_regularity_witness(Fraction(1), lams)
    return max(abs(val - (1 if lam == 0 else 0)) for lam, val in vals.items())


def _observable_locality(space: Space, rng, ctx) -> float:
    return max(
        locality_report(space, "A", I1, I2),
        locality_report(space, "B", I1, I2),
        locality_report(space, "C", J1, J2),
    )


def _field_disjoint_phase(space: Space, rng, ctx) -> float:
    return max(locality_report(space, "F", J1, J2), locality_report(space, "E", J1, J2))


def _soliton_phases(space: Space, rng, ctx) -> float:
    F = space.generator("q0")
    rho = make_sector(space, F, I_MID)
    ch = space.charges(F)
    worst = 0.0
    for name, side in (("c1", ch.plus), ("c2", ch.minus)):
        g = space.generator(name)
        got = sector_apply(space, rho, weyl_word(g)).terms()[0][1]
        worst = max(worst, abs(got - cmath.exp(-1j * float(side) * float(space.charges(g).c))))
    return worst


def _fixed_point_filters(space: Space, rng, ctx) -> float:
    """1 unless each projection fixes exactly the F(I) generators of its net."""
    f_gens = net_generators(space, "F", I_MID)
    for sub, kind in FIXED_POINT_NETS.items():
        for g in f_gens:
            word = weyl_word(g)
            invariant = fixed_point_project(space, word, sub) == word
            if invariant != space.in_space(g, NET_LABEL[kind]):
                return 1.0
    return 0.0


def _splitting_diagram(space: Space, rng, ctx) -> float:
    return 0.0 if all(diagram_check(space, space.generator("T0"), I_MID).values()) else 1.0


CHECKS = (
    Check("weyl-axioms", "product-associativity", 1e-12,
          "(W(r)W(s))W(t) = W(r)(W(s)W(t)), 1000 triples", _worst(_axiom_defects, "associativity")),
    Check("weyl-axioms", "product-unitarity", 1e-12,
          "W(v)W(-v) = 1", _worst(_axiom_defects, "unitarity")),
    Check("weyl-axioms", "involution-antihomomorphism", 1e-12,
          "(W(v)W(w))* = W(w)* W(v)*", _worst(_axiom_defects, "involution")),
    Check("weyl-axioms", "exchange-relation", 1e-12,
          "W(v)W(v') = e^{-i sigma(v,v')} W(v')W(v)", _worst(_axiom_defects, "exchange")),
    Check("weyl-axioms", "phase-cocycle-identity", 1e-9,
          "sigma(s,t) + sigma(r,s+t) = sigma(r,s) + sigma(r+s,t), 1000 triples",
          _worst(_axiom_defects, "cocycle")),
    Check("weyl-axioms", "staged-product-agreement", 1e-10,
          "zeta W(h)W(l) two-stage law embeds to the global product, 200 pairs", _staged_product),
    Check("psi-T", "sigma-splitting", 1e-6,
          "sigma = sigma_tangent + sigma_plane(l) + sigma_plane(m), 200 pairs", _sigma_splitting),
    Check("psi-T", "charge-coordinates-regularizer-independent", 0.0,
          "F_c and F_q coordinates agree exactly for regularizers T and T3", _charge_coordinates),
    # the PSD floor is -1e-8 per unit of the Gram matrix's 2-norm (at least 1)
    Check("states-positivity", "gram-min-eigenvalue", -1e-8,
          "20-word Gram matrix of the charge-delta field state is PSD",
          _gram_min_eigenvalue, "at-least"),
    Check("states-positivity", "regular-substitute-hermiticity-violation", 1e-6,
          "Gaussian weight in place of the charge delta breaks hermiticity",
          lambda space, rng, ctx: regular_substitute_probe(space, space.generator("T")),
          "at-least"),
    Check("states-positivity", "product-state-coincidence", 1e-10,
          "direct charge-delta state equals the ordered-product state, 100 words",
          _state_coincidence),
    Check("chiral", "mover-roundtrip", 1e-8,
          "data -> (theta_+, theta_-) -> data, max pointwise error, 10 vectors",
          _worst(_mover_defects, "roundtrip")),
    Check("chiral", "chiral-charge-relations", 0.0,
          "F_c = c_+ - c_- and F_q = c_+ + c_-, exact", _worst(_mover_defects, "charges")),
    Check("chiral", "sigma-chiral-splitting", 1e-5,
          "sigma = sigma_+ + sigma_- + sigma_inf, 200 pairs", _sigma_chiral_splitting),
    Check("chiral", "fock-norm-mover-identity", 1e-4,
          "||v||_a^2 = 2||theta_+||^2 + 2||theta_-||^2 relative, 20 decaying vectors",
          _fock_norm_mover_identity),
    Check("gns", "central-eigenrelation", 1e-12,
          "pi(W(0,n))|c> = e^{inc}|c>, 50 samples", _central_eigenrelation),
    Check("gns", "charge-operator-eigenrelation", 0.0,
          "Phi_N |c> = c |c>, exact", _charge_operator),
    Check("gns", "trace-property", 1e-12,
          "tr(AB) = tr(BA) on the elementary charge plane, 200 pairs", _trace_property),
    Check("gns", "distinct-charge-norm-distance", 1e-9,
          "||pi(W(l1)) - pi(W(l2))|| attains 2 on a two-charge subspace", _norm_distance),
    Check("gns", "non-regularity-witness", 0.0,
          "<0|pi(W(lambda c, 0))|0> is the indicator of lambda = 0, exact",
          _non_regularity_witness),
    Check("nets", "locality-observable-nets", 1e-6,
          "sigma vanishes between disjointly localized A/B/C generators", _observable_locality),
    Check("nets", "field-net-disjoint-phase", 1e-6,
          "disjoint sigma equals G_minus F_c - F_plus G_c for E/F generators",
          _field_disjoint_phase),
    Check("nets", "soliton-phases", 1e-6,
          "disjoint charge carriers pick up e^{-i F_side G_c} on each side", _soliton_phases),
    Check("nets", "gauge-fixed-point-filters", 0.0,
          "charge filters reproduce the intermediate net memberships exactly",
          _fixed_point_filters),
    Check("nets", "splitting-diagram", 0.0,
          "every clause of the splitting/fixed-point diagram holds", _splitting_diagram),
)

CHECK_BY_NAME: Dict[str, Check] = {check.name: check for check in CHECKS}


def _suite(name: str) -> Callable[[Space, np.random.Generator], List[dict]]:
    def run(space: Space, rng: np.random.Generator) -> List[dict]:
        """The records of the suite's checks, run in table order on `rng`."""
        ctx: dict = {}
        return [check.run(space, rng, ctx) for check in CHECKS if check.suite == name]

    run.__name__ = run.__qualname__ = "suite_" + name.lower().replace("-", "_")
    return run


# one entry point per suite, in report order, each also bound to its own name
SUITES: Dict[str, Callable[[Space, np.random.Generator], List[dict]]] = {
    name: _suite(name) for name in dict.fromkeys(check.suite for check in CHECKS)
}
(suite_weyl_axioms, suite_psi_t, suite_states_positivity,
 suite_chiral, suite_gns, suite_nets) = SUITES.values()


def run_suite(
    suite: str,
    seed: int,
    registry_path: Optional[str] = None,
    grid: Grid = DEFAULT_GRID,
    space: Optional[Space] = None,
) -> dict:
    """Execute a named suite (or "all") and return the report dict.

    The report's `grid` and `registry` describe the Space the suites ran on,
    so a given `space` overrides `registry_path` and `grid`.  The report
    carries no timing, so identical inputs give identical bytes.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    if space is None:
        space = load_registry(registry_path, grid)
    names = list(SUITES) if suite == "all" else [suite]
    sections = []
    for name in names:
        checks = SUITES[name](space, np.random.default_rng([seed, list(SUITES).index(name)]))
        sections.append(
            {
                "name": name,
                "checks": checks,
                "passed": all(c["status"] == "pass" for c in checks),
            }
        )
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
    }


def serialize_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
