"""Symplectic space of Cauchy-data pairs over a registered generator set.

A generator is a pair (f0, f1) of test functions; internally an atom is one
function in one slot, shared by every pair that places that function there,
and a vector is a finite rational combination of atoms.
This keeps vector identity, charges, and the regularized decomposition exact:
only the symplectic form itself and the T-relative moments are quadrature
values.  `Space.charges` is the one charge view, integers over one
denominator that callers divide only where they need a number.

The symplectic form is sigma(F, G) = integral (f0*g1 - g0*f1) dx, so atoms in
the same slot pair to zero and cross-slot pairs reduce to an integral Gram
matrix.  A Space builds it once, at load, as a signed per-atom table, one
quadrature per cross-slot atom pair, and `bilinear` sums any such table
over two vectors: the Fock form too, whose two tables (on the atoms' Cauchy
data and on their movers) fill in a column per atom as they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateRegularizer, FloatOverflow, NotInDomain, UnknownGenerator, clip
from .funcspace import (
    TOL_CHARGE,
    Grid,
    Interval,
    TestFunction,
    _simpson_value,
    constant_function,
    dot,
    fock_column,
    kink_spectral,
    localization,
    resample,
)


class Charges(NamedTuple):
    """Exact charges as integers over den > 0: c the slot-0 integral, plus
    and minus the slot-1 right and left limits.  F_c = c / den,
    F_q = (plus - minus) / den and the mean limit is (plus + minus) / 2 den."""

    den: int
    c: int
    plus: int
    minus: int

    def floats(self, c: bool = True, q: bool = True) -> Tuple[float, float]:
        """(F_c, F_q), 0.0 for one not asked for; FloatOverflow naming the one
        asked for that does not fit a float."""
        out = []
        for name, x, asked in (("F_c", self.c, c), ("F_q", self.plus - self.minus, q)):
            try:
                out.append(x / self.den if asked else 0.0)
            except OverflowError:
                raise FloatOverflow(f"charge {name} of the combination overflows a float") from None
        return out[0], out[1]


class SymVector:
    """Immutable rational combination of registered atoms.

    Held as integer numerators over one positive common denominator, in
    lowest terms: `_den` and a tuple of (atom, nonzero int) sorted by atom.
    Equal vectors have equal (den, nums), whatever route built them.

    Short cuts keep that form: a sum with ZERO returns the other operand
    (negated for ZERO - w), other sums merge the sorted tuples over the lcm
    (none for equal denominators) and reduce once, den 1 needs no gcd, `scale`
    returns ZERO for 0 and self for 1, and a negation skips `__init__`.
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

    def _combine(self, other: "SymVector", sign: int = 1) -> "SymVector":
        """self + sign * other: a merge by atom over the lcm, reduced once."""
        if not other._nums:
            return self
        if not self._nums:
            return other if sign > 0 else -other
        x, y, den = self._nums, other._nums, self._den
        if den != other._den:
            den = math.lcm(den, other._den)
            if den != self._den:
                m = den // self._den
                x = [(a, n * m) for a, n in x]
            sign *= den // other._den
        if sign != 1:
            y = [(b, k * sign) for b, k in y]
        out, i, j, nx, ny = [], 0, 0, len(x), len(y)
        while i < nx and j < ny:
            a, n = x[i]
            b, k = y[j]
            if a < b:
                out.append(x[i])
                i += 1
            elif b < a:
                out.append(y[j])
                j += 1
            else:
                if n + k:
                    out.append((a, n + k))
                i, j = i + 1, j + 1
        out += x[i:] or y[j:]  # what is left of one of them
        return SymVector(out, den)

    __add__ = _combine

    def __sub__(self, other: "SymVector") -> "SymVector":
        return self._combine(other, -1)

    def __neg__(self) -> "SymVector":
        v = object.__new__(SymVector)  # already in lowest terms: past __init__
        v._den, v._nums = self._den, tuple([(a, -n) for a, n in self._nums])
        return v

    def scale(self, k: int | Fraction) -> "SymVector":
        p, q = k.numerator, k.denominator
        if not p:
            return ZERO
        if p == q:
            return self
        return SymVector([(a, n * p) for a, n in self._nums], self._den * q)

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


def bilinear(rows: Sequence[Sequence[float]], v: SymVector, w: SymVector) -> float:
    """sum c_a d_b rows[a][b] over the atoms a of v and b of w, in that order.
    n / den is the correctly rounded float of a coefficient, as
    float(Fraction) is; `weyl.parse_combo` refuses a coefficient that no
    float holds.  Zero entries (sigma's same-slot ones) are skipped with no
    bit moved: the total starts at +0.0, a sum is -0.0 only from -0.0 + -0.0,
    so adding ±0.0 never changes it (a product c_a d_b beyond a float aside)."""
    dw, total = w._den, 0.0
    for a, na in v._nums:
        ca, row = na / v._den, rows[a]
        for b, nb in w._nums:
            g = row[b]
            if g:
                total += ca * (nb / dw) * g
    return total


def sigma_plane(a: Tuple, b: Tuple) -> float:
    """Standard form on a coordinate plane: (x, y), (x', y') -> x y' - x' y."""
    return float(a[0]) * float(b[1]) - float(b[0]) * float(a[1])


class Space:
    """Generators, atoms, charges and the symplectic form are fixed at
    construction.  There is one atom per (slot, TestFunction object), named
    after the first generator slot that holds it: q0 = (0, tk0) reads T0.1,
    the atom of T0 = (dtk0, tk0).  Memos fill in as they are read: the Fock
    form's per-atom tables in the Cauchy-data and the mover basis, the
    slot-0 movers (an FFT each), each `psi_T` regularizer's per-atom plane
    moments, and the localization of each vector read.  Arrays are read-only.
    `source` names where the pairs came from (a registry path, or "default"
    for the packaged registry)."""

    def __init__(
        self,
        grid: Grid,
        pairs: Mapping[str, Tuple[Optional[TestFunction], Optional[TestFunction]]],
        source: str = "<string>",
    ):
        self.grid, self.source = grid, source
        atoms: list[Atom] = []
        placed: Dict[Tuple[int, int], int] = {}  # (slot, id of a given function) -> its atom
        self._generators: Dict[str, SymVector] = {}
        for name, (f0, f1) in pairs.items():
            parts = []
            for slot, fn in ((0, f0), (1, f1)):
                if fn is not None and not fn.is_zero():
                    if (slot, id(fn)) not in placed:
                        placed[slot, id(fn)] = len(atoms)
                        atoms.append(self._atom(f"{name}.{slot}", slot, resample(fn, grid)))
                    parts.append((placed[slot, id(fn)], Fraction(1)))
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
        charges = [(atom.fn.integral, 0, 0) if atom.slot == 0
                   else (0, atom.fn.right_limit, atom.fn.left_limit) for atom in atoms]
        den = self._charge_den = math.lcm(*(x.denominator for row in charges for x in row))
        self._charge_nums = tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                                  for row in charges)
        # the Gram entries integral f_i g_j dx (Simpson) for slot-0 atoms i and
        # slot-1 atoms j; sigma's rows hold g at [i][j], -g at [j][i] and 0.0
        # for same-slot pairs
        n = len(atoms)
        self._gram: Dict[Tuple[int, int], float] = {
            (i, j): _simpson_value(atoms[i].fn.samples * atoms[j].fn.samples, grid)
            for i in range(n) for j in range(n) if self._slots[i] < self._slots[j]}
        rows = [[0.0] * n for _ in range(n)]
        for (i, j), g in self._gram.items():
            rows[i][j], rows[j][i] = g, -g
        self._sigma_rows = tuple(tuple(row) for row in rows)
        # the Fock form's rows Q(a, b) on Cauchy data and on movers (slot 1 shared)
        self._fock, self._columns = [[0.0] * n for _ in range(n)], set()
        self._movers = [row if slot else [0.0] * n for row, slot in zip(self._fock, self._slots)]
        self._antideriv: Dict[int, np.ndarray] = {}
        self._regularizers: Dict[SymVector, Tuple[float, ...]] = {}
        self._localizations: Dict[SymVector, Optional[Interval]] = {}

    def _atom(self, name: str, slot: int, fn: TestFunction) -> Atom:
        if slot == 0:
            if fn.integral is None:
                raise NotInDomain(f"slot-0 function {clip(name)} needs a declared integral")
            if fn.left_limit != 0 or fn.right_limit != 0:
                raise NotInDomain(f"slot-0 function {clip(name)} must have zero limits")
        return Atom(name, slot, fn)

    def generator(self, name: str) -> SymVector:
        try:
            return self._generators[name]
        except KeyError:
            raise UnknownGenerator(
                f"unknown generator {clip(name)}; registered: {', '.join(self._generators)}"
            ) from None

    def generator_names(self) -> Tuple[str, ...]:
        return tuple(self._generators)

    def vector(self, combo: Dict[str, Fraction]) -> SymVector:
        return sum((self.generator(name).scale(coeff) for name, coeff in combo.items()), ZERO)

    def slot_part(self, v: SymVector, slot: int) -> SymVector:
        return SymVector([(a, n) for a, n in v._nums if self._slots[a] == slot], v._den)

    def unit_vector(self) -> SymVector:
        """The constant-one slot-1 atom (the central direction)."""
        return self._unit

    # -- symplectic form ----------------------------------------------------

    def sigma(self, v: SymVector, w: SymVector) -> float:
        return bilinear(self._sigma_rows, v, w)

    # -- charges and membership ----------------------------------------------

    def charges(self, v: SymVector) -> Charges:
        """v's slot-0 integral and slot-1 right and left limits, summed
        exactly from the per-atom integers."""
        c = plus = minus = 0
        table = self._charge_nums
        for a, n in v._nums:
            ca, pa, ma = table[a]
            c += n * ca
            plus += n * pa
            minus += n * ma
        return Charges(v._den * self._charge_den, c, plus, minus)

    def in_space(self, v: SymVector, label: str) -> bool:
        _, c, plus, minus = self.charges(v)
        if label == "Va":
            return c == plus == minus == 0
        if label == "Vb":
            return c == 0 and plus == minus
        if label == "Vc":
            return plus == minus
        if label == "Vq":
            return c == 0 and plus == -minus
        if label == "Ve":
            return c == 0
        if label == "Vf":
            return True
        raise ValueError(f"unknown space label {label!r}")

    def slot1_is_constant(self, v: SymVector) -> bool:
        """True when the assembled slot-1 part of v is constant: exact when
        every slot-1 atom of v is, else from the samples, as atoms with equal
        samples cancel (q0 - T0, when q0 reads tk0 declared again)."""
        flat = self._flat1
        if all(flat[a] for a, _ in v._nums):
            return True
        return self.assemble(v)[1].is_constant()

    def split_off_center(self, v: SymVector) -> SymVector:
        den, _, plus, minus = self.charges(v)
        return v - self._unit.scale(Fraction(plus + minus, 2 * den))

    # -- assembly ------------------------------------------------------------

    def _samples(self, v: SymVector) -> list:
        samples = [np.zeros(self.grid.n), np.zeros(self.grid.n)]
        for a, n in v._nums:
            samples[self._slots[a]] += n / v._den * self.atoms[a].fn.samples
        return samples

    def assemble(self, v: SymVector) -> Tuple[TestFunction, TestFunction]:
        s0, s1 = self._samples(v)
        den, c, plus, minus = self.charges(v)
        f0 = TestFunction(self.grid, s0, Fraction(0), Fraction(0), Fraction(c, den))
        f1 = TestFunction(self.grid, s1, Fraction(minus, den), Fraction(plus, den), None)
        return f0, f1

    def mover(self, a: int) -> np.ndarray:
        """u_a = 2 theta_+ of atom a, read-only: a slot-1 atom's samples, or a
        slot-0 atom's antiderivative, limits (0, c_a), built once."""
        fn = self.atoms[a].fn
        if self._slots[a]:
            return fn.samples
        if a not in self._antideriv:
            self._antideriv[a] = kink_spectral(fn.samples, fn.integral, self.grid, -1)
            self._antideriv[a].flags.writeable = False
        return self._antideriv[a]

    def localization(self, v: SymVector) -> Optional[Interval]:
        """`funcspace.localization` of v's pair, kept by v; None when it is empty."""
        if v not in self._localizations:
            self._localizations[v] = localization(*self.assemble(v))
        return self._localizations[v]

    def fock_norm_sq(self, v: SymVector) -> float:
        """||v||^2 = ||f0||^2 + ||F1||^2 in the Fock form, from the table whose
        atom a holds its samples and the kernel of its slot."""
        return self._fock_form(v, self._fock, lambda a: (self.atoms[a].fn.samples, self._slots[a]))

    def mover_norm_sq(self, v: SymVector) -> float:
        """2||theta_+||^2 + 2||theta_-||^2 = ||A||^2 + ||F1||^2: the slot-1 form
        on the atoms' movers u_a."""
        return self._fock_form(v, self._movers, lambda a: (self.mover(a), 1))

    def _fock_form(self, v: SymVector, rows: list, basis: Callable) -> float:
        """bilinear(rows, v, v); basis(a) is atom a's (samples u_a, kernel
        slot k).  Atom b's column, filled the first time b is read with
        kernel k (`_columns`), holds Q(a, b) = u_a . fock_column(u_b) for
        same-slot a <= b, so Q does not depend on the read order.
        NotInDomain off Va, or when the numeric charge sigma(v, e), v's
        slot-0 Simpson value, exceeds TOL_CHARGE times v's largest coefficient
        (at least 1): a window cut an atom.  FloatOverflow before that when a
        coefficient's square overflows, and after it when the sum is NaN."""
        _, c, plus, minus = self.charges(v)
        if c or plus or minus:
            raise NotInDomain("the Fock norm is defined on fully decaying data (Va) only")
        charge = self.sigma(v, self._unit)
        top = max([abs(n) for _, n in v._nums], default=0) / v._den
        if top * top < math.inf:
            if abs(charge) > TOL_CHARGE * max(1.0, top):
                raise NotInDomain("f0 must have zero integral (charge)")
            for b, _ in v._nums:
                u, k = basis(b)
                if (b, k) not in self._columns:
                    y = fock_column(u, k, self.grid)
                    for a in range(b + 1):
                        if self._slots[a] == self._slots[b]:
                            rows[a][b] = rows[b][a] = dot(basis(a)[0], y)
                    self._columns.add((b, k))
            total = bilinear(rows, v, v)
            if not math.isnan(total):
                return total
        raise FloatOverflow(f"Fock norm overflows a float at coefficient {top:.3g} "
                            f"(numeric charge sigma(v, e) {charge:.3g})")

    def fock_factor(self, v: SymVector) -> float:
        """The quasi-free vacuum value exp(-||v||^2 / 4); 1.0 on ZERO."""
        return math.exp(-0.25 * self.fock_norm_sq(v))

    # -- T-relative moments and the regularized splitting ----------------------

    def charge_part(self, v: SymVector, T: SymVector) -> Tuple[Fraction, Fraction, SymVector]:
        """(a, b, l) with a = F_c / T_c and b = F_q / T_q, read from v's and
        T's integer charges: l = a T_0 + b T_1, built on T's slots (ZERO for
        a charge-free v), carries v's charges c and q."""
        den, c, plus, minus = self.charges(v)
        tden, tc, tplus, tminus = self.charges(T)
        if tc == 0 or tplus == tminus:
            raise DegenerateRegularizer(
                f"regularizer charges {Fraction(tc, tden)}, {Fraction(tplus - tminus, tden)}")
        if c == 0 and plus == minus:
            return Fraction(0), Fraction(0), ZERO
        a = Fraction(c * tden, den * tc)
        b = Fraction((plus - minus) * tden, den * (tplus - tminus))
        return a, b, self.slot_part(T, 0).scale(a) + self.slot_part(T, 1).scale(b)

    def tangent(self, v: SymVector, T: SymVector) -> SymVector:
        """The fully decaying part of v: v minus its charge part along T's
        slots and then minus the central constant, so all three charges of
        the remainder vanish exactly."""
        return self.split_off_center(v - self.charge_part(v, T)[2])

    def psi_T(self, v: SymVector, T: SymVector) -> PsiImage:
        """Split v into its tangent and two symplectic planes with coordinates
        (F_c, F_n) and (F_r, F_q), where F_n = integral f1 t0 dx and
        F_r = integral f0 t1 dx against T's slots; the total symplectic form
        is the sum of the three pieces when T's slots have unit charges and
        pair to zero against each other.  The first call for T keeps each
        atom's Simpson moment against T's other slot (no tail check: a slot 0
        is tail-free); F_r and F_n sum n / den times the moments of v's slot-0
        and slot-1 atoms in atom order, so v is never summed."""
        tangent = self.tangent(v, T)  # a degenerate T raises before its memo fills
        if T not in self._regularizers:
            t = self._samples(T)
            self._regularizers[T] = tuple(
                [_simpson_value(atom.fn.samples * t[1 - atom.slot], self.grid) for atom in self.atoms])
        moments, planes = self._regularizers[T], [0.0, 0.0]
        for a, n in v._nums:
            planes[self._slots[a]] += n / v._den * moments[a]
        den, c, plus, minus = self.charges(v)
        return PsiImage(tangent, (Fraction(c, den), planes[1]),
                        (planes[0], Fraction(plus - minus, den)))
