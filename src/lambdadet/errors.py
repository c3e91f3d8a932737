"""Domain error types shared across the package.

Every failure mode that callers are expected to catch gets its own class,
all rooted at LambdaDetError so the command line tool can map any of them
to a single nonzero exit status.  Class names double as the short error
codes printed by the CLI.
"""

from __future__ import annotations


class LambdaDetError(Exception):
    """Base class for all domain errors raised by this package."""


class DivisionByZero(LambdaDetError, ZeroDivisionError):
    """Division of a polynomial or rational by an exact zero."""


class InexactDivision(LambdaDetError):
    """Polynomial division left a nonzero remainder."""


class PoleAtZero(LambdaDetError):
    """A negative t-exponent survived where t had to be set to zero."""


class CapExceeded(LambdaDetError):
    """An enumeration was requested beyond the configured safety cap."""


class SizeMismatch(LambdaDetError):
    """Two grid-shaped arguments have incompatible sizes."""


class NonMonomialEntry(LambdaDetError):
    """A matrix entry is not a single nonzero monomial c*t^k."""


class ZeroMinor(LambdaDetError):
    """A connected minor used as a divisor is the zero polynomial."""


class IndeterminateForm(LambdaDetError):
    """The numeric recurrence hit a 0/0 that perturbing zeros cannot resolve."""


class CondensationBreakdown(LambdaDetError):
    """The numeric recurrence hit x/0 with x nonzero."""


class WidthExceeded(LambdaDetError):
    """A region is wider than the tiling counter's frontier allows."""


class OrderExceeded(LambdaDetError):
    """An Aztec graph is larger than the brute-force matcher allows."""
