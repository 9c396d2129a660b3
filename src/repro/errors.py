"""Exception types shared across the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library-specific errors."""


class InvalidHypergraphError(ReproError):
    """Raised when a hypergraph violates a structural requirement."""


class InvalidPartitionError(ReproError):
    """Raised when a partition vector is malformed for its hypergraph."""


class BalanceViolationError(ReproError):
    """Raised when a partition violates a balance constraint it must satisfy."""


class ProblemTooLargeError(ReproError):
    """Raised by exact solvers when an instance exceeds their size guard.

    Exact (exponential-time) solvers in this library refuse instances that
    would take unreasonably long, instead of silently hanging.  Callers can
    raise the guard explicitly when they know what they are doing.
    """


class InfeasibleError(ReproError):
    """Raised when no solution satisfying the given constraints exists."""


class NotAHyperDAGError(ReproError):
    """Raised when an operation requiring a hyperDAG receives a non-hyperDAG."""


class ServeError(ReproError):
    """Base class for errors raised by the :mod:`repro.serve` subsystem."""


class ServeProtocolError(ServeError):
    """Raised when a job request payload is malformed or unsupported."""


class QueueFullError(ServeError):
    """Raised when the serve admission queue is at capacity.

    The HTTP layer maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` header: the server sheds load instead of growing an
    unbounded backlog.
    """


class DeadlineExceededError(ServeError):
    """Raised when a request's deadline expires before its result is ready.

    Used both by the cooperative :func:`repro.serve.jobs.with_deadline`
    wrapper (awaiting side) and by the worker pool when it kills a
    dispatch whose job overran its budget (executing side).
    """


class JobNotFoundError(ServeError):
    """Raised when a job id is unknown to the server (or already purged)."""


class ServeClientError(ServeError):
    """Raised by :mod:`repro.serve.client` when the server returns an error
    response that is not a backpressure signal (those raise
    :class:`QueueFullError` so callers can back off and retry)."""


class WorkerPoolError(ReproError):
    """Raised by :mod:`repro.core.workers` when worker processes cannot
    be started here, and by its users when a worker fails mid-task."""


class SharedMemoryError(ReproError):
    """Raised by :mod:`repro.core.shm` when a shared-memory segment
    cannot be created, attached, or laid out (e.g. attaching a
    descriptor whose segment has already been unlinked)."""


class SanitizerError(ReproError):
    """Raised by :mod:`repro.analyze.sanitize` when an enabled runtime
    check finds a corrupted structure at a kernel/partitioner boundary.

    Only ever raised when ``REPRO_SANITIZE`` is set; with the sanitizer
    disabled (the default) the checks are no-ops.
    """


class MeshError(ReproError):
    """Base class for errors raised by the :mod:`repro.mesh` subsystem
    (router admission, shard supervision, stream relays)."""


class NoShardAvailableError(MeshError):
    """Raised when every shard a key hashes to is marked down — the
    router maps it to ``503 Service Unavailable`` so clients retry
    after the supervisor restarts a shard."""


class SimulationError(ReproError):
    """Raised by :mod:`repro.sim` for malformed plans, topologies,
    scheduler protocol violations (assigning a finished task, an
    out-of-range worker, a locked task to a foreign worker), or unknown
    scheduler / information-mode names."""
