"""Exception hierarchy shared across the package.

Every error raised by library code derives from IpirError so callers (and
the CLI exit-code mapping) can distinguish library failures from bugs.
"""


class IpirError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(IpirError, ValueError):
    """Numeric parameters outside their documented domain."""


class DistributionError(IpirError, ValueError):
    """A probability table violates its invariants."""


class NegativeEntry(DistributionError):
    """A probability entry is negative."""


class SumNotOne(DistributionError):
    """Entries do not sum to one; carries the exact deficit."""

    def __init__(self, total, deficit):
        super().__init__(f"entries sum to {total}, off by {deficit}")
        self.total = total
        self.deficit = deficit


class PartialSupport(IpirError):
    """An operation requiring all rows was given a partially supported matrix."""


class ConstructionFailed(IpirError):
    """The greedy policy construction found no feasible companion index."""


class TooLarge(IpirError):
    """Problem size exceeds the configured cap."""


class IterationLimit(IpirError):
    """Pivoting did not terminate within the safety bound."""


class UnsupportedPair(IpirError, KeyError):
    """Sampling requested at a (s, x) pair the policy does not cover."""


class BlockMismatch(InvalidParams):
    """Message length is not compatible with the retrieval block size."""


class DesiredNotInSubset(IpirError, ValueError):
    """The desired message index is outside the retrieval subset."""


class OutOfRange(IpirError, IndexError):
    """A query references a message or bit position outside the store."""


class InconsistentAnswers(IpirError):
    """Answer lengths do not match the queries they respond to."""


class ScheduleMismatch(IpirError):
    """A mechanism step was invoked against the wrong schedule slot."""


class DegeneratePosterior(IpirError):
    """Posterior conditioning produced zero total mass (internal consistency failure)."""


class ExactModeInfeasible(IpirError):
    """Exact enumeration would exceed the configured state cap."""


class ProtocolError(IpirError):
    """Wire-level failure: malformed frame, bad payload, or server error."""


class MalformedFrame(ProtocolError):
    """A frame could not be parsed."""


class FetchTimeout(ProtocolError):
    """A server did not answer in time; carries the endpoint."""

    def __init__(self, endpoint):
        super().__init__(f"no answer from {endpoint}")
        self.endpoint = endpoint


class LengthMismatch(ProtocolError):
    """Answer bit count differs from the query combo count."""


class ConfigError(IpirError):
    """A CLI scenario configuration is unreadable or inconsistent."""
