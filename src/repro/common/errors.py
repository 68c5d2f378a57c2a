"""Exception hierarchy for the repro library.

All library exceptions derive from :class:`ReproError` so callers can catch a
single base type.  Errors that model *cloud platform* failures (quota,
saturation) carry enough structure for the sampling layer to distinguish
"platform exhausted" from "caller misconfigured".
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or configured with invalid parameters."""


def positive_count(name, value):
    """``value`` as a positive int, refusing fractions: a quota of 1000.7
    or 0.5 requests is a caller bug, not 1000 or 0."""
    if value.__class__ is int and value > 0:
        return value
    return _integral_count(name, value, 1, "positive")


def non_negative_count(name, value):
    """``value`` as an int >= 0, refusing fractions: a pool of 2.7 hosts
    is a caller bug, not 2."""
    if value.__class__ is int and value >= 0:
        return value
    return _integral_count(name, value, 0, "non-negative")


def _integral_count(name, value, least, kind):
    try:
        count = int(value)
    except (TypeError, ValueError, OverflowError):  # nan, inf, non-numbers
        count = None
    if count is None or count != value or count < least:
        raise ConfigurationError(
            "{} must be a {} integral count, got {!r}".format(
                name, kind, value))
    return count


class UnknownRegionError(ConfigurationError):
    """A region name does not exist in the provider catalog."""

    def __init__(self, region):
        super().__init__("unknown region: {!r}".format(region))
        self.region = region


class UnknownZoneError(ConfigurationError):
    """An availability-zone name does not exist in the provider catalog."""

    def __init__(self, zone):
        super().__init__("unknown availability zone: {!r}".format(zone))
        self.zone = zone


class DeploymentError(ReproError):
    """A function deployment failed or a deployment id is unknown."""


class InvocationError(ReproError):
    """A function invocation failed.

    ``reason`` is a short machine-readable string.  The full vocabulary:

    * ``"handler_error"`` — user code raised inside the FI.  Not worth
      retrying or failing over: the bug follows the request to any zone.
    * ``"throttled"`` — the per-account concurrent-request quota was hit
      (:class:`QuotaExceededError`).  Worth retrying after backoff, and
      worth failing over when the account spans providers.
    * ``"no_capacity"`` — zone-wide saturation, no free FI slots
      (:class:`SaturationError`).  Retrying in the *same* zone is futile
      on short timescales; fail over to another zone instead.
    * ``"transient"`` — a short-lived platform or network fault: a
      control-plane hiccup, a partition, injected chaos
      (:class:`TransientFaultError`).  Worth retrying with backoff, and
      failing over if it persists.

    :data:`RETRYABLE_REASONS` and :data:`FAILOVER_REASONS` encode which
    reasons the resilient client path may retry in place and which
    justify dropping the zone for the current request.
    """

    def __init__(self, message, reason="handler_error"):
        super().__init__(message)
        self.reason = reason


class QuotaExceededError(InvocationError):
    """The per-account concurrent request quota was exceeded."""

    def __init__(self, message="concurrent request quota exceeded"):
        super().__init__(message, reason="throttled")


class SaturationError(InvocationError):
    """The availability zone has no capacity left to create new FIs."""

    def __init__(self, message="availability zone has no free capacity"):
        super().__init__(message, reason="no_capacity")


class TransientFaultError(InvocationError):
    """A short-lived invocation failure (network blip, control-plane
    hiccup, injected chaos).  Safe to retry with backoff."""

    def __init__(self, message="transient invocation fault"):
        super().__init__(message, reason="transient")


#: Reasons the client may retry in the same zone after backing off.
RETRYABLE_REASONS = frozenset(("transient", "throttled"))

#: Reasons that justify failing the request over to another zone.
FAILOVER_REASONS = frozenset(("transient", "throttled", "no_capacity"))


class PayloadError(ReproError):
    """A dynamic-function payload could not be built or decoded."""


class CharacterizationError(ReproError):
    """A CPU characterization is empty, stale, or otherwise unusable."""


class TransportError(ReproError):
    """A distributed-sweep transport failed (socket error, truncated
    frame, lost peer).  Raised by :mod:`repro.engine.protocol` and
    :mod:`repro.engine.remote`; always an infrastructure fault, never a
    task bug."""


class TransportTimeout(TransportError):
    """A transport receive timed out (no frame, no heartbeat)."""


class AuthenticationError(TransportError):
    """A sweep peer failed the HMAC challenge-response handshake (wrong
    or missing shared token, bad magic, unsupported protocol version).
    Raised before any pickled frame from the peer is deserialized."""


class SweepFailure(tuple):
    """One failed sweep cell: unpacks as ``(index, error_type, message)``.

    ``chunk_failure`` marks failures where the *infrastructure* lost the
    whole chunk (a dead worker, a broken pool, a dropped connection)
    rather than the cell's own code raising — reports use it to separate
    platform loss from task bugs.
    """

    def __new__(cls, index, error_type, message, chunk_failure=False):
        self = tuple.__new__(cls, (index, error_type, message))
        self.chunk_failure = bool(chunk_failure)
        return self

    @property
    def index(self):
        return self[0]

    @property
    def error_type(self):
        return self[1]

    @property
    def message(self):
        return self[2]

    def __reduce__(self):
        return (SweepFailure, (self[0], self[1], self[2],
                               self.chunk_failure))


class SweepError(ReproError):
    """One or more cells of a parallel experiment sweep failed.

    ``failures`` is a list of :class:`SweepFailure` entries (each unpacks
    as a ``(cell_index, error_type, message)`` tuple) ordered by cell
    index, so the report is deterministic regardless of which worker hit
    the failure first.  Entries with ``chunk_failure=True`` were lost to
    infrastructure (dead worker, broken pool, dropped transport), not to
    the cell's own code.
    """

    def __init__(self, failures):
        normalized = [failure if isinstance(failure, SweepFailure)
                      else SweepFailure(*failure) for failure in failures]
        self.failures = sorted(normalized)
        lines = ["{} sweep cell(s) failed:".format(len(self.failures))]
        for failure in self.failures:
            suffix = "  [chunk lost]" if failure.chunk_failure else ""
            lines.append("  cell {}: {}: {}{}".format(
                failure.index, failure.error_type, failure.message,
                suffix))
        super().__init__("\n".join(lines))

    def chunk_failures(self):
        """The subset of failures caused by infrastructure loss."""
        return [f for f in self.failures if f.chunk_failure]

    def task_failures(self):
        """The subset of failures raised by the cells' own code."""
        return [f for f in self.failures if not f.chunk_failure]
