"""Exception types shared across the solver lab."""


class DnseError(Exception):
    """Base class for all dnse_lab errors."""


class ZeroState(DnseError):
    """All amplitudes are zero where a nonzero state is required."""


class OddPeriodicLattice(DnseError):
    """Staggering is inconsistent at the wrap for odd-N periodic lattices."""


class EmptyPattern(DnseError):
    """Pattern string has length zero."""


class AllZero(DnseError):
    """Pattern contains no occupied site."""


class BadCharacter(DnseError):
    """Pattern string contains a character outside {+, -, 0}."""

    def __init__(self, position: int, char: str):
        self.position = position
        self.char = char
        super().__init__(f"invalid pattern character {char!r} at position {position}")


class SumTooSmall(DnseError):
    """Sum of amplitudes too close to zero for the cubic energy estimator."""


class SingularJacobian(DnseError):
    """Pivot collapsed during the linear solve; the iteration sits at a
    critical/degenerate point.  May carry the best iterate so far."""

    def __init__(self, message="singular Jacobian", state=None, energy=None, report=None):
        self.state = state
        self.energy = energy
        self.report = report
        super().__init__(message)


class NoConvergence(DnseError):
    """Newton iteration hit max_iter.  Carries the best iterate and report."""

    def __init__(self, state, energy, report):
        self.state = state
        self.energy = energy
        self.report = report
        super().__init__(
            f"no convergence after {report.iterations} iterations "
            f"(last residual {report.residual_history[-1]:.3e})"
        )


class EscapedOrbit(DnseError):
    """Orbit escaped before a lattice state could be extracted."""


class NotLocalized(DnseError):
    """Tail decay is only defined for negative energies."""


class WindowTouchesPeak(DnseError):
    """Tail-fit window overlaps a peak site."""


class ZeroAmplitudeInWindow(DnseError):
    """Tail-fit window contains an exactly zero amplitude."""
