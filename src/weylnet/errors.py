"""Error taxonomy shared by all weylnet modules."""


class WeylnetError(Exception):
    pass


class EdgeMismatch(WeylnetError):
    """Window-edge samples deviate from the declared limits beyond tol_edge."""


class BadGrid(WeylnetError):
    """Non-positive step, unresolvable width, a compact support or a Hermite
    center outside the window, or incompatible grids."""


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
