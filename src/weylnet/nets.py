"""Interval-indexed nets, locality, sector and gauge automorphisms.

Nets are finite generator sets: a registered generator belongs to kind(I)
when its exact charges match the kind's membership filter and its
localization (support of f0 union support of df1) is contained in I.
A generator with empty localization is central: it is skipped, and the
centre enters kinds B and E of every interval through the unit alone.

For disjoint intervals the symplectic form between localized elements reduces
to the asymptotic closed form G_minus F_c - F_plus G_c (left element F): each
slot-0 density sees exactly the other's slot-1 limit on its side.  Kinds A,
B, C are local (the closed form vanishes); kinds Q, E, F fail locality by
exactly that phase.

Sector automorphisms act by e^{i sigma_f(F, G)} per key; gauge elements by
the character e^{-i (n F_c + r F_q)}.  Fixed-point projections are exact
charge filters: averaging a character over the compact dual group is a
Kronecker delta on the charge, so no group integration is needed.

The checks here return measurements: `locality_report` the largest defect
against the closed form, `diagram_check` whether each clause of the splitting
diagram holds.  Their bounds live in `weylnet.suites.CHECKS`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import (
    BadIntervals,
    MissingCharacterValue,
    NotInDomain,
    RegularizerNotContained,
)
from .funcspace import Interval
from .symplectic import Space, SymVector
from .weyl import WeylElement

# quadrature floor of the diagram's clauses on the non-exact plane coordinates
TOL_QUAD = 1e-6

NET_LABEL = {"A": "Va", "B": "Vb", "C": "Vc", "Q": "Vq", "E": "Ve", "F": "Vf"}
# the observable nets, on which the disjoint closed form vanishes
LOCAL_KINDS = ("A", "B", "C")


def net_generators(space: Space, kind: str, I: Interval) -> Tuple[SymVector, ...]:
    label = NET_LABEL[kind]
    out = []
    for name in space.generator_names():
        v = space.generator(name)
        if not space.in_space(v, label):
            continue
        # an empty localization marks a central generator; the unit stands in
        loc = space.localization(v)
        if not loc.is_empty and I.contains(loc):
            out.append(v)
    if kind in ("B", "E"):
        out.append(space.unit_vector())
    return tuple(out)


def disjoint_sigma(space: Space, F: SymVector, G: SymVector, f_left: bool) -> float:
    """Closed form of sigma_f(F, G) for disjointly localized F, G."""
    f, g = space.charges(F), space.charges(G)
    if f_left:
        return float(g.minus * f.c - f.plus * g.c)
    return float(g.plus * f.c - f.minus * g.c)


def locality_report(space: Space, kind: str, I1: Interval, I2: Interval) -> float:
    """Largest |sigma(F, G) - closed form| over F in kind(I1), G in kind(I2).
    The closed form is 0 for the LOCAL_KINDS."""
    if not I1.disjoint(I2):
        raise BadIntervals(f"{I1} and {I2} are not disjoint")
    gens1 = net_generators(space, kind, I1)
    gens2 = net_generators(space, kind, I2)
    f_left = I1.left_of(I2)
    local = kind in LOCAL_KINDS
    defects = (
        abs(space.sigma(F, G) - (0.0 if local else disjoint_sigma(space, F, G, f_left)))
        for F in gens1 for G in gens2
    )
    return max(defects, default=0.0)


@dataclass(frozen=True)
class SectorAutomorphism:
    F: SymVector
    I: Interval


def make_sector(space: Space, F: SymVector, I: Interval) -> SectorAutomorphism:
    if not I.contains(space.localization(F)):
        raise NotInDomain(f"element is not localized in {I}")
    return SectorAutomorphism(F, I)


def sector_apply(space: Space, rho: SectorAutomorphism, A: WeylElement) -> WeylElement:
    return WeylElement(
        (G, a * cmath.exp(1j * space.sigma(rho.F, G))) for G, a in A.terms()
    )


@dataclass(frozen=True)
class GaugeElement:
    n: float = 0.0
    r: float = 0.0
    table: Optional[Tuple[Tuple[Tuple[Fraction, Fraction], complex], ...]] = None


def character_gauge(table: Dict[Tuple[Fraction, Fraction], complex]) -> GaugeElement:
    return GaugeElement(table=tuple(sorted(table.items())))


def gauge_apply(space: Space, g: GaugeElement, A: WeylElement) -> WeylElement:
    lookup = dict(g.table) if g.table is not None else None
    out = []
    for F, a in A.terms():
        ch = space.charges(F)
        if lookup is not None:
            key = (ch.c, ch.q)
            if key not in lookup:
                raise MissingCharacterValue(f"no character value for charge {key}")
            phase = lookup[key]
        else:
            phase = cmath.exp(-1j * (g.n * float(ch.c) + g.r * float(ch.q)))
        out.append((F, a * phase))
    return WeylElement(out)


# gauge subgroup -> the intermediate net its fixed points on the field net form
FIXED_POINT_NETS = {"G_q": "C", "G_c": "E", "G_full": "B"}


def gauge_invariant(space: Space, F: SymVector, subgroup: str) -> bool:
    """Every element of the subgroup fixes W(F): G_c needs F_c = 0, G_q needs
    F_q = 0, G_full needs both."""
    ch = space.charges(F)
    return (subgroup == "G_q" or ch.c == 0) and (subgroup == "G_c" or ch.q == 0)


def fixed_point_project(space: Space, A: WeylElement, subgroup: str) -> WeylElement:
    if subgroup not in FIXED_POINT_NETS:
        raise ValueError(f"unknown gauge subgroup {subgroup!r}")
    return WeylElement((F, a) for F, a in A.terms() if gauge_invariant(space, F, subgroup))


def diagram_check(space: Space, T: SymVector, I: Interval) -> Dict[str, bool]:
    """Whether each clause of the splitting/fixed-point diagram holds, in order."""
    if not I.contains(space.localization(T)):
        raise RegularizerNotContained(f"loc T not contained in {I}")
    clauses = {}

    # psi_T kills the C and N plane coordinates of charge-q generators
    clauses["q_into_zero_c"] = all(
        f_c == 0 and abs(f_n) < TOL_QUAD
        for f_c, f_n in (space.psi_T(g, T).l_part for g in net_generators(space, "Q", I))
    )

    # psi_T kills the Q coordinate of charge-c generators
    clauses["c_into_zero_q"] = all(
        space.psi_T(g, T).m_part[1] == 0 for g in net_generators(space, "C", I)
    )

    # fully decaying generators away from loc T are fixed: image (F, 0, 0)
    fixed = True
    for name in space.generator_names():
        g = space.generator(name)
        if not space.in_space(g, "Va"):
            continue
        loc = space.localization(g)
        if loc.is_empty or not loc.disjoint(I):
            continue
        img = space.psi_T(g, T)
        moment = max(abs(img.l_part[1]), abs(img.m_part[0]))
        fixed = fixed and img.tangent == g and moment < TOL_QUAD
    clauses["va_disjoint_fixed"] = fixed

    # fixed-point nets: the charge filter on F(I) generators is exactly the
    # sub-net membership filter
    f_gens = net_generators(space, "F", I)
    for sub, kind in FIXED_POINT_NETS.items():
        clauses[f"fixed_points_{sub}"] = all(
            gauge_invariant(space, g, sub) == space.in_space(g, NET_LABEL[kind]) for g in f_gens
        )
    return clauses
