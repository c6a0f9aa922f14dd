"""Exception hierarchy for the repro package.

Every subsystem raises exceptions derived from :class:`ReproError` so that
callers can catch package failures with a single ``except`` clause while
still being able to discriminate by subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class SimulationError(ReproError):
    """A discrete-event simulation kernel invariant was violated."""


class NetworkError(ReproError):
    """Base class for simulated-network failures."""


class ConnectionRefused(NetworkError):
    """The destination host exists but nothing is listening on the port."""


class FirewallBlocked(NetworkError):
    """A firewall or NAT rule rejected the connection attempt."""


class HostUnreachable(NetworkError):
    """No route exists between the two hosts."""


class ChannelClosed(NetworkError):
    """Operation on a connection that has been closed by either end."""


class TimeoutExpired(ReproError):
    """A bounded operation did not complete within its deadline.

    VISIT semantics (paper section 3.2) guarantee that every operation
    initiated by the simulation completes *or fails* within a user-supplied
    timeout; this is the failure signal.
    """


class CodecError(ReproError):
    """Malformed wire data or an unsupported type reached the codec."""


class ProtocolError(ReproError):
    """A peer violated the message protocol (bad magic, bad sequence...)."""


class AuthenticationError(ReproError):
    """Password / certificate / token verification failed."""


class VisitError(ReproError):
    """VISIT toolkit error that is not a timeout or codec problem."""


class UnicoreError(ReproError):
    """UNICORE middleware failure (job rejected, consignment failed...)."""


class IncarnationError(UnicoreError):
    """The NJS could not translate an AJO task for the target system."""


class OgsaError(ReproError):
    """Grid-service container or service-level failure."""


class ServiceNotFound(OgsaError):
    """Registry lookup or handle resolution found no matching service."""


class OgsaTimeout(OgsaError):
    """A service invocation got no reply within the connection's timeout."""


class SteeringError(ReproError):
    """Steering-core failure (unknown parameter, bad command, role abuse)."""


class LoadError(ReproError):
    """Open-loop load layer failure (capacity ledger misuse, bad arrival
    configuration, admission-controller invariant violation)."""


class ChaosError(ReproError):
    """Chaos layer failure: a malformed fault schedule, an injector
    applied against a fabric that cannot host it, or — the one that
    matters — an :class:`repro.chaos.invariants.InvariantMonitor`
    conservation-law violation surfaced by ``assert_ok``."""


class CampaignError(ReproError):
    """Campaign layer failure: a malformed campaign spec or axis point,
    a results store whose header does not match the campaign being
    resumed, or a corrupt (non-trailing) store record."""


class LiveError(ReproError):
    """Live control-plane failure: a malformed or oversized HTTP request,
    a paced-runner misconfiguration, or a corrupt arrival trace."""


class ObsError(ReproError):
    """Observability layer failure: a malformed metric or label name, a
    tracer used before its environment is bound, or a protection
    primitive misconfigured (non-positive thresholds, zero quotas)."""


class CircuitOpen(ObsError):
    """An enforcing circuit breaker shed the call: the guarded
    dependency (broker pool, registry) has been failing and the breaker
    is in its open window — fail fast instead of feeding the timeout."""


class CoviseError(ReproError):
    """COVISE substrate failure (bad module wiring, missing data object)."""


class VenueError(ReproError):
    """Access-Grid venue server failure."""
