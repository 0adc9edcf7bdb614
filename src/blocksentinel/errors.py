"""Exception types shared across the package."""


class SentinelError(Exception):
    """Base class for all package errors."""


# -- header and segment codecs ------------------------------------------------

class WrongLength(SentinelError):
    """Serialized header is not exactly 80 bytes."""


class InvalidCompact(SentinelError):
    """Compact difficulty word has a zero mantissa, its sign bit set, or
    encodes a value that is zero or does not fit in 256 bits."""


class BrokenLink(SentinelError):
    """Consecutive headers do not hash-link to each other."""


class MalformedSegment(SentinelError):
    """Compact segment bytes are truncated or internally inconsistent."""


# -- header window -------------------------------------------------------------

class LinkMismatch(SentinelError):
    """Appended header does not link to the current window tip."""


class PowInvalid(SentinelError):
    """Header hash does not satisfy its own difficulty target."""


class HeightGap(SentinelError):
    """Appended header does not continue the window's height sequence."""


class RangeMismatch(SentinelError):
    """Views to compare do not cover the same height range."""


class InvalidRemote(SentinelError):
    """Received headers fail link or proof-of-work validation."""


# -- gossip transports ----------------------------------------------------------

class InvalidPayload(SentinelError):
    """Gossip payload failed expansion or validation."""


class TooLarge(SentinelError):
    """Encoded message exceeds the transport budget."""


class MalformedFields(SentinelError):
    """Gossip protocol fields cannot be decoded."""


class MalformedBody(SentinelError):
    """Binary message body is truncated or has a bad magic."""


# -- trace analytics -------------------------------------------------------------

class EmptyTrace(SentinelError):
    """Operation needs at least one connection record."""


class UnknownUser(SentinelError):
    """User id does not occur in the trace."""


class UnknownServer(SentinelError):
    """Server id does not occur in the trace."""


# -- configuration ----------------------------------------------------------------

class ConfigInvalid(SentinelError):
    """Configuration file or value is unusable."""
