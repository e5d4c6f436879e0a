"""Symplectic space of Cauchy-data pairs over a registered generator set.

A generator is a pair (f0, f1) of test functions; internally every pair is
split into slot atoms and a vector is a finite rational combination of atoms.
This keeps vector identity, charges, and the regularized decomposition exact:
only the symplectic form itself and the T-relative moments are quadrature
values.

The symplectic form is sigma(F, G) = integral (f0*g1 - g0*f1) dx, so atoms in
the same slot pair to zero and cross-slot pairs reduce to a cached integral
Gram matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import DegenerateRegularizer, NotInDomain, UnknownGenerator
from .funcspace import (
    EMPTY,
    TOL_CHARGE,
    Grid,
    Interval,
    TestFunction,
    _charge_antiderivative,
    constant_function,
    derivative,
    fock_column,
    localization,
    pairing,
    resample,
)


@dataclass(frozen=True)
class Charges:
    """Exact charges: c = slot-0 integral, q = slot-1 limit jump, inf = mean limit."""

    c: Fraction
    q: Fraction
    inf: Fraction

    @property
    def minus(self) -> Fraction:
        """The slot-1 left limit."""
        return self.inf - self.q / 2

    @property
    def plus(self) -> Fraction:
        """The slot-1 right limit."""
        return self.inf + self.q / 2


class SymVector:
    """Immutable rational combination of registered atoms.

    Held as integer numerators over one positive common denominator, in
    lowest terms: `_den` and a tuple of (atom, nonzero int) sorted by atom.
    Equal vectors have equal (den, nums), whatever route built them.

    The arithmetic takes short cuts that keep that form: a sum or difference
    with ZERO returns the other operand (negated for ZERO - w), equal
    denominators are added without an lcm, `scale` returns ZERO for 0 and
    the vector itself for 1, and numerators over den 1 need no gcd.
    """

    __slots__ = ("_den", "_nums")

    def __init__(self, items: Iterable[Tuple[int, Fraction]] = (), den: Optional[int] = None):
        """`SymVector(items)` sums rational (atom, coefficient) pairs;
        `SymVector(nums, den)` takes integer numerators over den > 0, sorted
        by atom and nonzero, and reduces them to lowest terms.

        Tuples here are built from lists, not generators: a tuple built from
        a generator is over-allocated and then shrunk, and that churn raised
        the peak RSS of a 4096-point suite run by about 1 MB."""
        if den is None:
            acc: Dict[int, Fraction] = {}
            for aid, coeff in items:
                acc[aid] = acc.get(aid, 0) + Fraction(coeff)
            den = math.lcm(*(c.denominator for c in acc.values()))
            nums = tuple(
                [(a, c.numerator * (den // c.denominator)) for a, c in sorted(acc.items()) if c]
            )
        else:
            nums = tuple(items)
            g = 1 if den == 1 else math.gcd(den, *[n for _, n in nums])
            if g > 1:
                den //= g
                nums = tuple([(a, n // g) for a, n in nums])
        self._den = den
        self._nums = nums

    def items(self) -> Tuple[Tuple[int, Fraction], ...]:
        return tuple([(a, Fraction(n, self._den)) for a, n in self._nums])

    def is_zero(self) -> bool:
        return not self._nums

    def _combine(self, other: "SymVector", sign: int) -> "SymVector":
        if not other._nums:
            return self
        if not self._nums:
            return other if sign > 0 else -other
        d1, d2 = self._den, other._den
        if d1 == d2:
            den, m2 = d1, sign
            acc = dict(self._nums)
        else:
            den = math.lcm(d1, d2)
            m1, m2 = den // d1, sign * (den // d2)
            acc = {a: n * m1 for a, n in self._nums}
        for a, n in other._nums:
            acc[a] = acc.get(a, 0) + n * m2
        return SymVector([(a, n) for a, n in sorted(acc.items()) if n], den)

    def __add__(self, other: "SymVector") -> "SymVector":
        return self._combine(other, 1)

    def __sub__(self, other: "SymVector") -> "SymVector":
        return self._combine(other, -1)

    def __neg__(self) -> "SymVector":
        return SymVector([(a, -n) for a, n in self._nums], self._den)

    def scale(self, k) -> "SymVector":
        if not isinstance(k, (int, Fraction)):
            k = Fraction(k)
        if not k:
            return ZERO
        if k == 1:
            return self
        return SymVector(
            [(a, n * k.numerator) for a, n in self._nums], self._den * k.denominator
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymVector)
            and self._den == other._den
            and self._nums == other._nums
        )

    def __hash__(self) -> int:
        return hash((self._den, self._nums))

    def __repr__(self) -> str:
        if not self._nums:
            return "SymVector(0)"
        return "SymVector(" + " + ".join(f"{c}*a{a}" for a, c in self.items()) + ")"


ZERO = SymVector(())


@dataclass(frozen=True)
class Atom:
    name: str
    slot: int
    fn: TestFunction


@dataclass(frozen=True)
class PsiImage:
    """Result of the regularized splitting: decaying part plus two planes."""

    tangent: SymVector
    l_part: Tuple[Fraction, float]  # (F_c, F_n)
    m_part: Tuple[float, Fraction]  # (F_r, F_q)


def sigma_plane(a: Tuple, b: Tuple) -> float:
    """Standard form on a coordinate plane: (x, y), (x', y') -> x y' - x' y."""
    return float(a[0]) * float(b[1]) - float(b[0]) * float(a[1])


class Space:
    """Generators and atoms are fixed at construction; only three memos fill
    in as they are read: the Gram entries, the Fock product Q per atom pair
    and the antiderivative per slot-0 atom.
    `source` names where the pairs came from (a registry path, or "default"
    for the packaged registry)."""

    def __init__(
        self,
        grid: Grid,
        pairs: Mapping[str, Tuple[Optional[TestFunction], Optional[TestFunction]]],
        source: str = "<string>",
    ):
        self.grid = grid
        self.source = source
        atoms: list[Atom] = []
        self._generators: Dict[str, SymVector] = {}
        for name, (f0, f1) in pairs.items():
            parts = []
            for slot, fn in ((0, f0), (1, f1)):
                if fn is not None and not fn.is_zero():
                    atoms.append(self._atom(f"{name}.{slot}", slot, fn))
                    parts.append((len(atoms) - 1, Fraction(1)))
            self._generators[name] = SymVector(parts)
        for unit, atom in enumerate(atoms):
            if atom.slot == 1 and atom.fn.left_limit == 1 and atom.fn.is_constant():
                break
        else:
            unit = len(atoms)
            atoms.append(self._atom("__unit__", 1, constant_function(Fraction(1), grid)))
        self.atoms: Tuple[Atom, ...] = tuple(atoms)
        self._unit = SymVector([(unit, Fraction(1))])
        self._slots = tuple(atom.slot for atom in atoms)
        # True for an atom that adds nothing but a constant to the slot-1 part
        self._flat1 = tuple(atom.slot == 0 or atom.fn.is_constant() for atom in atoms)
        # exact per-atom charges as integers over one common denominator:
        # slot-0 integral, slot-1 right and left limit
        charges = [
            (atom.fn.integral, 0, 0) if atom.slot == 0
            else (0, atom.fn.right_limit, atom.fn.left_limit)
            for atom in atoms
        ]
        den = self._charge_den = math.lcm(*(x.denominator for row in charges for x in row))
        self._charge_nums = tuple(
            tuple(x.numerator * (den // x.denominator) for x in row) for row in charges
        )
        self._gram: Dict[Tuple[int, int], float] = {}
        self._fock_q: Dict[int, Dict[int, float]] = {}
        self._antideriv: Dict[int, np.ndarray] = {}

    def _atom(self, name: str, slot: int, fn: TestFunction) -> Atom:
        fn = resample(fn, self.grid)
        if slot == 0:
            if fn.integral is None:
                raise NotInDomain(f"slot-0 function {name!r} needs a declared integral")
            if fn.left_limit != 0 or fn.right_limit != 0:
                raise NotInDomain(f"slot-0 function {name!r} must have zero limits")
        return Atom(name, slot, fn)

    def generator(self, name: str) -> SymVector:
        try:
            return self._generators[name]
        except KeyError:
            raise UnknownGenerator(
                f"unknown generator {name!r}; registered: {', '.join(self._generators)}"
            ) from None

    def generator_names(self) -> Tuple[str, ...]:
        return tuple(self._generators)

    def vector(self, combo: Dict[str, Fraction]) -> SymVector:
        out = ZERO
        for name, coeff in combo.items():
            out = out + self.generator(name).scale(coeff)
        return out

    def slot_part(self, v: SymVector, slot: int) -> SymVector:
        return SymVector([(a, n) for a, n in v._nums if self._slots[a] == slot], v._den)

    def unit_vector(self) -> SymVector:
        """The constant-one slot-1 atom (the central direction)."""
        return self._unit

    # -- symplectic form ----------------------------------------------------

    def _gram_entry(self, i: int, j: int) -> float:
        """integral f_i g_j dx for a slot-0 atom i and a slot-1 atom j, memoized."""
        key = (i, j)
        if key not in self._gram:
            self._gram[key] = pairing(self.atoms[i].fn, self.atoms[j].fn)
        return self._gram[key]

    def sigma(self, v: SymVector, w: SymVector) -> float:
        # n / den is the correctly rounded float of the coefficient, as
        # float(Fraction) is
        slots, gram = self._slots, self._gram
        dw = w._den
        total = 0.0
        for a, na in v._nums:
            ca = na / v._den
            sa = slots[a]
            for b, nb in w._nums:
                if sa != slots[b]:
                    key = (b, a) if sa else (a, b)
                    try:
                        g = gram[key]
                    except KeyError:
                        g = self._gram_entry(*key)
                    total += ca * (nb / dw) * (-g if sa else g)
        return total

    # -- charges and membership ----------------------------------------------

    def _charge_sums(self, v: SymVector) -> Tuple[int, int, int, int]:
        """(den, c, plus, minus): v's slot-0 integral and slot-1 right and
        left limits as integers over den."""
        c = plus = minus = 0
        table = self._charge_nums
        for a, n in v._nums:
            ca, pa, ma = table[a]
            c += n * ca
            plus += n * pa
            minus += n * ma
        return v._den * self._charge_den, c, plus, minus

    def charges(self, v: SymVector) -> Charges:
        den, c, plus, minus = self._charge_sums(v)
        return Charges(
            Fraction(c, den), Fraction(plus - minus, den), Fraction(plus + minus, 2 * den)
        )

    def in_space(self, v: SymVector, label: str) -> bool:
        ch = self.charges(v)
        if label == "Va":
            return ch.c == 0 and ch.q == 0 and ch.inf == 0
        if label == "Vb":
            return ch.c == 0 and ch.q == 0
        if label == "Vc":
            return ch.q == 0
        if label == "Vq":
            return ch.c == 0 and ch.inf == 0
        if label == "Ve":
            return ch.c == 0
        if label == "Vf":
            return True
        raise ValueError(f"unknown space label {label!r}")

    def slot1_is_constant(self, v: SymVector) -> bool:
        """True when the assembled slot-1 part of v is constant.

        Exact when every slot-1 atom of v is constant itself; otherwise it
        tests the samples, because distinct atoms may hold the same function
        (q0.1 and T0.1 are both tk0), so q0 - T0 has a zero slot-1 part.
        """
        flat = self._flat1
        if all(flat[a] for a, _ in v._nums):
            return True
        return self.assemble(v)[1].is_constant()

    def split_off_center(self, v: SymVector) -> Tuple[SymVector, Fraction]:
        ch = self.charges(v)
        return v - self.unit_vector().scale(ch.inf), ch.inf

    # -- assembly ------------------------------------------------------------

    def assemble(self, v: SymVector) -> Tuple[TestFunction, TestFunction]:
        samples = [np.zeros(self.grid.n), np.zeros(self.grid.n)]
        for a, n in v._nums:
            samples[self._slots[a]] += n / v._den * self.atoms[a].fn.samples
        den, c, plus, minus = self._charge_sums(v)
        f0 = TestFunction(self.grid, samples[0], Fraction(0), Fraction(0), Fraction(c, den))
        f1 = TestFunction(self.grid, samples[1], Fraction(minus, den), Fraction(plus, den), None)
        return f0, f1

    def slot1_derivative(self, v: SymVector) -> TestFunction:
        """Derivative of the slot-1 component, using the atoms' closed forms."""
        s = np.zeros(self.grid.n)
        for a, n in v._nums:
            if self._slots[a] == 1:
                s += n / v._den * derivative(self.atoms[a].fn).samples
        den, _, plus, minus = self._charge_sums(v)
        return TestFunction(self.grid, s, Fraction(0), Fraction(0), Fraction(plus - minus, den))

    def antiderivative(self, v: SymVector) -> np.ndarray:
        """Samples of the antiderivative of v's slot-0 part, with exact limits
        (0, c): the sum of each slot-0 atom's antiderivative, built once per
        atom the first time it is read."""
        s = np.zeros(self.grid.n)
        for a, n in v._nums:
            if self._slots[a] == 0:
                s += n / v._den * self.atom_antiderivative(a)
        return s

    def atom_antiderivative(self, a: int) -> np.ndarray:
        """Samples of slot-0 atom a's antiderivative, limits (0, c_a), built
        the first time it is read."""
        if a not in self._antideriv:
            fn = self.atoms[a].fn
            self._antideriv[a] = _charge_antiderivative(fn, fn.integral)
        return self._antideriv[a]

    def localization(self, v: SymVector) -> Union[Interval, type(EMPTY)]:
        f0, f1 = self.assemble(v)
        return localization(f0, f1)

    def fock_norm_sq(self, v: SymVector) -> float:
        """||v||^2 = sum c_a c_b Q(a, b) over v's atoms, in atom order with
        cross terms counted twice.  Q(a, b) = a.samples @ fock_column(b) for
        same-slot atoms a <= b: b's row is filled the first time b is read,
        so Q does not depend on the read order.  NotInDomain off Va, or when
        the numeric charge sigma(v, e), the Simpson value of v's slot 0
        against the unit e, is not zero (a window cut an atom)."""
        _, c, plus, minus = self._charge_sums(v)
        if c or plus or minus:
            raise NotInDomain("the Fock norm is defined on fully decaying data (Va) only")
        if abs(self.sigma(v, self._unit)) > TOL_CHARGE:
            raise NotInDomain("f0 must have zero integral (charge)")
        total = 0.0
        for i, (b, nb) in enumerate(v._nums):
            slot = self._slots[b]
            if b not in self._fock_q:
                y = fock_column(self.atoms[b].fn, slot)
                self._fock_q[b] = {a: float(self.atoms[a].fn.samples @ y)
                                   for a in range(b + 1) if self._slots[a] == slot}
            row, cb = self._fock_q[b], nb / v._den
            for a, na in v._nums[:i]:
                if a in row:
                    total += 2.0 * (na / v._den) * cb * row[a]
            total += cb * cb * row[b]
        return total

    def fock_factor(self, v: SymVector) -> float:
        """The quasi-free vacuum value exp(-||v||^2 / 4); 1.0 on ZERO."""
        return math.exp(-0.25 * self.fock_norm_sq(v))

    # -- T-relative moments and the regularized splitting ----------------------

    def charge_part(self, ch: Charges, T: SymVector) -> Tuple[Fraction, Fraction, SymVector]:
        """(a, b, l) with a = F_c / T_c and b = F_q / T_q for the charges ch:
        l = a T_0 + b T_1, built on T's slots, carries the charges c and q."""
        tch = self.charges(T)
        if tch.c == 0 or tch.q == 0:
            raise DegenerateRegularizer(f"regularizer charges {tch.c}, {tch.q}")
        a = ch.c / tch.c
        b = ch.q / tch.q
        return a, b, self.slot_part(T, 0).scale(a) + self.slot_part(T, 1).scale(b)

    def _tangent(self, v: SymVector, T: SymVector, ch: Charges) -> SymVector:
        return self.split_off_center(v - self.charge_part(ch, T)[2])[0]

    def tangent(self, v: SymVector, T: SymVector) -> SymVector:
        """The fully decaying part of v: v minus its charge part along T's
        slots and then minus the central constant, so all three charges of
        the remainder vanish exactly."""
        return self._tangent(v, T, self.charges(v))

    def psi_T(self, v: SymVector, T: SymVector) -> PsiImage:
        """Split v into its tangent and two symplectic planes with coordinates
        (F_c, F_n) and (F_r, F_q), where F_n = integral f1 t0 dx and
        F_r = integral f0 t1 dx against T's slots; the total symplectic form
        is the sum of the three pieces when T's slots have unit charges and
        pair to zero against each other."""
        ch = self.charges(v)
        tangent = self._tangent(v, T, ch)
        f0, f1 = self.assemble(v)
        t0, t1 = self.assemble(T)
        return PsiImage(tangent, (ch.c, pairing(f1, t0)), (pairing(f0, t1), ch.q))
