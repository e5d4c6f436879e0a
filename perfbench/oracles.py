"""Closed-form expectations the benchmark checks program outputs against.

Nothing here calls into `weylnet`: the exact charges come from the
declarations in the registry text, and the Fock norm of a Hermite pair from
the Hermite coefficients, so a fault in the program's quadrature or charge
bookkeeping cannot hide in the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Declared:
    """What a registry `fn` line promises about a function."""

    kind: str
    params: Dict[str, str]

    def integral(self) -> Fraction:
        """Declared integral of a slot-0 function."""
        if self.kind == "kink" and self.params.get("form", "step") == "deriv":
            return Fraction(1)
        if self.kind == "gaussian-hermite" and int(self.params["order"]) % 2 == 1:
            return Fraction(0)
        raise ValueError(f"{self.kind} function declares no integral")

    def limits(self) -> Tuple[Fraction, Fraction]:
        """Declared (left, right) limits."""
        if self.kind == "kink":
            if self.params.get("form", "step") == "step":
                return Fraction(-1, 2), Fraction(1, 2)
            return Fraction(0), Fraction(0)
        if self.kind == "constant":
            value = Fraction(self.params["value"])
            return value, value
        if self.kind == "gaussian-hermite":
            return Fraction(0), Fraction(0)
        raise ValueError(f"no declared limits for a {self.kind} function")


@dataclass(frozen=True)
class PairCharges:
    c: Fraction  # slot-0 integral
    left: Fraction  # slot-1 limit at -inf
    right: Fraction  # slot-1 limit at +inf

    @property
    def q(self) -> Fraction:
        return self.right - self.left


class Registry:
    """The `fn` and `pair` declarations of a registry file."""

    def __init__(self, text: str):
        self.functions: Dict[str, Declared] = {}
        self.pairs: Dict[str, Tuple[Optional[str], Optional[str]]] = {}
        for raw in text.splitlines():
            tokens = raw.split("#", 1)[0].split()
            if not tokens:
                continue
            record, name = tokens[0], tokens[1]
            if record == "fn":
                params = dict(tok.split("=", 1) for tok in tokens[3:])
                self.functions[name] = Declared(tokens[2], params)
            elif record == "pair":
                slots = dict(tok.split("=", 1) for tok in tokens[2:])
                self.pairs[name] = tuple(
                    None if slots.get(k, "0") == "0" else slots[k] for k in ("f0", "f1")
                )
            else:
                raise ValueError(f"unknown record {record!r}")

    def charges(self, pair: str) -> PairCharges:
        f0, f1 = self.pairs[pair]
        c = self.functions[f0].integral() if f0 else Fraction(0)
        left, right = self.functions[f1].limits() if f1 else (Fraction(0), Fraction(0))
        return PairCharges(c, left, right)

    def hermite_orders(self, pair: str) -> Tuple[int, int]:
        """Orders of a pair whose two slots are Hermite-Gaussians."""
        return tuple(
            int(self.functions[fn].params["order"]) for fn in self.pairs[pair]
        )


def hermite_coefficients(order: int) -> list:
    """Integer coefficients of the physicists' H_order, lowest power first."""
    prev, cur = [1], [0, 2]
    if order == 0:
        return prev
    for k in range(1, order):
        nxt = [0] + [2 * a for a in cur]
        for i, a in enumerate(prev):
            nxt[i] -= 2 * k * a
        prev, cur = cur, nxt
    return cur


def _square(coeffs: list) -> list:
    out = [0] * (2 * len(coeffs) - 1)
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            out[i + j] += a * b
    return out


def hermite_fock_norm_sq(odd: int, even: int) -> float:
    """Fock norm of the pair (psi_odd, psi_even) of L2-normalized Hermite
    functions, at any centres.

    |psi_k~(p)| = |psi_k(p)| (Hermite functions are Fourier eigenfunctions,
    and a shift only adds a phase), so the norm is
    integral |p|^-1 psi_odd(p)^2 + |p| psi_even(p)^2 dp.  With
    psi_k^2 = H_k^2 e^{-p^2} / (2^k k! sqrt(pi)) every term reduces to
    integral_0^inf p^(2j+1) e^{-p^2} dp = j!/2.
    """
    if odd % 2 != 1 or even % 2 != 0:
        raise ValueError("need an odd slot-0 order and an even slot-1 order")
    total = Fraction(0)
    # |p|^-1 H_odd^2 has only odd powers p^(m-1), m >= 2 even
    for m, a in enumerate(_square(hermite_coefficients(odd))):
        if a:
            total += Fraction(a * math.factorial((m - 2) // 2), 2**odd * math.factorial(odd))
    # |p| H_even^2 has odd powers p^(m+1)
    for m, a in enumerate(_square(hermite_coefficients(even))):
        if a:
            total += Fraction(a * math.factorial(m // 2), 2**even * math.factorial(even))
    return float(total) / math.sqrt(math.pi)
