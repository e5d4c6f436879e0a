"""Error taxonomy shared by all weylnet modules; `clip`, the one way a
message quotes user text; and `largest`, the one defect reduction: it
refuses the NaN that max(0.0, nan) drops, and an inf."""

import math
from typing import Iterable


def clip(tok: str) -> str:
    """tok quoted for a message; past 24 characters, its first 10 and its length."""
    return repr(tok) if len(tok) <= 24 else f"{tok[:10]!r}... ({len(tok)} chars)"


class WeylnetError(Exception):
    pass


class EdgeMismatch(WeylnetError):
    """Window-edge samples deviate from the declared limits beyond tol_edge."""


class BadGrid(WeylnetError):
    """Non-positive step, unresolvable width, a compact support, an arctan
    kink or a Hermite center outside the window, or incompatible grids."""


class DivergentTail(WeylnetError):
    """Both pairing factors have nonzero constant tails on the same side."""


class NotInDomain(WeylnetError):
    """Argument lies outside the operation's symplectic subspace."""


class UnknownGenerator(WeylnetError):
    """Symplectic vector references an unregistered generator id."""


class DegenerateRegularizer(WeylnetError):
    """Regularizing element has a vanishing charge."""


class InvalidKey(WeylnetError):
    """Weyl element keyed outside the elementary (c, n) coordinates."""


class FloatOverflow(WeylnetError):
    """A phase angle, charge or norm of finite input does not fit a float."""


class BadIntervals(WeylnetError):
    """Interval arguments violate the required disjointness/ordering."""


class RegularizerNotContained(WeylnetError):
    """diagram_check requires loc T inside the test interval."""


class RegistryParseError(WeylnetError):
    """Generator-registry file failed to parse."""


class ElementParseError(WeylnetError):
    """Textual Weyl-element literal failed to parse."""


class NonFiniteDefect(WeylnetError):
    """A defect or check value is NaN or infinite."""


def largest(defects: Iterable[float]) -> float:
    """The largest defect, 0.0 for none; NonFiniteDefect on the first NaN or inf."""
    worst = 0.0
    for d in defects:
        if not math.isfinite(d):
            raise NonFiniteDefect(f"non-finite defect {d}")
        worst = max(worst, d)
    return float(worst)
