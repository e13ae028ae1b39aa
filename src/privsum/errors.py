"""Exception types shared across the package."""


class PrivsumError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(PrivsumError):
    """Experiment configuration is malformed or violates a constraint."""


class InvalidEpsilon(PrivsumError):
    """epsilon is too large for the node's out-degree (mixing-phase weights
    in (epsilon, 1) summing to 1 become infeasible)."""


class NotStronglyConnected(PrivsumError):
    """The graph does not contain a directed path between every node pair."""


class DivisionByZero(PrivsumError):
    """A node's weight sum reached zero; fatal protocol corruption."""


class PlaintextOutOfRange(PrivsumError):
    """Plaintext integer lies outside [0, n)."""


class MalformedCiphertext(PrivsumError):
    """Ciphertext is not a valid element for the given key."""


class MagnitudeOverflow(PrivsumError):
    """A real value exceeds the fixed-point codec's representable range, or
    a run's state (s, w) is no longer finite."""


class TraceIncomplete(PrivsumError):
    """An attack needs observations the adversary view does not contain."""


class TopologyConditionUnmet(PrivsumError):
    """The topology precondition of an exact-recovery attack fails; the
    attack refuses to run rather than emit garbage."""


class DegenerateDenominator(PrivsumError):
    """The witness construction would divide by zero for this alternative
    initial value."""


class RangeUncovered(PrivsumError):
    """A transition-matrix product was requested over rounds that the
    recorded weight stream does not cover."""


class ProtocolError(PrivsumError):
    """A wire frame violates the framing contract."""


class PeerDisconnected(PrivsumError):
    """A peer became unreachable; fatal for the synchronous protocol."""


class FaultyShare(PrivsumError):
    """A received share pair no honest peer sends: not finite, or with a
    w-share other than 0.0 in a masking round or not above 0 in a mixing
    round."""


class DecryptFailure(PrivsumError):
    """An encrypted share could not be decrypted."""


class Timeout(PrivsumError):
    """A networked phase (key flooding, share wait) exceeded its deadline."""
