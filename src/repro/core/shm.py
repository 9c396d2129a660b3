"""Shared-memory CSR handoff for multi-process partitioning.

``multiprocessing`` pickles every argument into each worker, so passing
a million-pin :class:`~repro.core.hypergraph.Hypergraph` to ``n`` workers
copies the CSR arrays ``n + 1`` times.  This module places the arrays in
a POSIX shared-memory segment *once*; workers attach by name and build a
zero-copy view, so what crosses the pipe is a ~100-byte descriptor.

Two layers:

* :class:`SharedArrays` — a generic bundle of named numpy arrays packed
  into one :class:`multiprocessing.shared_memory.SharedMemory` segment,
  with an explicit lifecycle: the *owner* (creator) unlinks, *attachers*
  only close.  Both sides support ``with``.
* :class:`SharedCSR` — the hypergraph-shaped bundle (edge ptr/pins,
  weights and the incidence CSR, so workers never recompute it) that
  the sub-round ``RoundPool`` workers read array by array.

Lifecycle rules (the Python >= 3.8 footguns this module absorbs):

* An attacher's handle is never registered with the resource tracker —
  otherwise every attaching process schedules the segment for unlink at
  its own exit and the parent's segment vanishes under it (bpo-38119).
* The creator's handle stays registered, so a SIGKILLed parent leaks
  nothing: its resource tracker unlinks the segment post-mortem.
* ``close()`` tolerates exported numpy views (``BufferError``): the
  mapping then lives until the views are garbage-collected, which is
  the best Python can do without invalidating live arrays.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..errors import SharedMemoryError
from .hypergraph import Hypergraph

__all__ = ["SharedArrays", "SharedCSR"]

# Segment names are pid-qualified and counted, not random: entropy
# sources are banned from solver-reachable code by the determinism
# pass, and a readable prefix lets operators (and the kill-mid-run
# test) audit /dev/shm for leftovers.
_SEG_PREFIX = "repro_shm"
_SEG_SEQ = itertools.count()


def _new_segment(nbytes: int) -> shared_memory.SharedMemory:
    size = max(int(nbytes), 1)          # SharedMemory rejects size=0
    while True:
        name = f"{_SEG_PREFIX}_{os.getpid()}_{next(_SEG_SEQ)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True,
                                              size=size)
        except FileExistsError:
            continue                     # stale leftover; try next counter


@contextlib.contextmanager
def _without_tracking():
    """Suppress resource-tracker registration for the enclosed attach.

    Attachers must not be tracked: a tracked attacher unlinks the
    owner's segment when *its own* process exits (bpo-38119), and an
    attach-then-unregister dance instead *removes the owner's entry*
    when owner and attacher share one tracker (fork children, or
    attaching in-process), which both kills the kill-safety net and
    makes the owner's unlink log a tracker KeyError.  Registering is a
    plain function call on the module, so masking it for the duration
    of the ``SharedMemory`` constructor is exact.  (Python 3.13's
    ``track=False`` is this, built in.)
    """
    original = resource_tracker.register
    # repro: allow[fork-safety] — the patch is process-local by intent:
    # each attaching process (worker or parent) masks only its own view
    # of the module for the microseconds the constructor runs, and the
    # finally restores it before anything else can call register.
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        yield
    finally:
        # repro: allow[fork-safety] — restores the same process-local
        # binding the line above replaced.
        resource_tracker.register = original


class SharedArrays:
    """Named numpy arrays packed into one shared-memory segment.

    Create with :meth:`create` (owner) or :meth:`attach` (worker); get
    array views with ``sa["name"]``.  The owner's ``with`` block closes
    *and unlinks*; an attacher's only closes.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 fields: dict[str, tuple[tuple[int, ...], str]],
                 owner: bool) -> None:
        self._shm = shm
        self._fields = fields
        self._owner = owner
        self._unlinked = False

    # -- construction -------------------------------------------------

    @classmethod
    def create(cls, arrays: dict[str, np.ndarray]) -> "SharedArrays":
        """Copy ``arrays`` into a fresh segment owned by this process."""
        fields: dict[str, tuple[tuple[int, ...], str]] = {}
        offset = 0
        for name, arr in arrays.items():
            arr = np.ascontiguousarray(arr)
            fields[name] = (tuple(arr.shape), arr.dtype.str)
            offset = _align(offset) + arr.nbytes
        try:
            shm = _new_segment(offset)
        except OSError as exc:
            raise SharedMemoryError(
                f"cannot create {offset}-byte shared segment: {exc}"
            ) from exc
        sa = cls(shm, fields, owner=True)
        for name, arr in arrays.items():
            sa[name][...] = np.ascontiguousarray(arr)
        return sa

    @classmethod
    def attach(cls, descriptor: dict) -> "SharedArrays":
        """Attach to a segment created elsewhere, by descriptor."""
        try:
            with _without_tracking():
                shm = shared_memory.SharedMemory(name=descriptor["seg"])
        except (OSError, ValueError) as exc:
            raise SharedMemoryError(
                f"cannot attach shared segment {descriptor.get('seg')!r}:"
                f" {exc}") from exc
        fields = {name: (tuple(shape), dtype)
                  for name, (shape, dtype) in descriptor["fields"].items()}
        return cls(shm, fields, owner=False)

    # -- access --------------------------------------------------------

    def descriptor(self) -> dict:
        """Picklable handle (~100 bytes + field table) for attachers."""
        return {"seg": self._shm.name,
                "fields": {name: [list(shape), dtype]
                           for name, (shape, dtype) in self._fields.items()}}

    def __getitem__(self, name: str) -> np.ndarray:
        offset = 0
        for fname, (shape, dtype) in self._fields.items():
            offset = _align(offset)
            nbytes = int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
            if fname == name:
                return np.ndarray(shape, dtype=dtype, buffer=self._shm.buf,
                                  offset=offset)
            offset += nbytes
        raise KeyError(name)

    @property
    def nbytes(self) -> int:
        """Total payload bytes (the segment may be page-rounded above this)."""
        total = 0
        for shape, dtype in self._fields.values():
            total = _align(total)
            total += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        return total

    @property
    def name(self) -> str:
        return self._shm.name

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (views may keep it alive)."""
        try:
            self._shm.close()
        except BufferError:
            # numpy views of the buffer are still alive; the mapping is
            # released when they are collected.  Unlink (below) is what
            # actually frees the backing memory system-wide.
            pass

    def unlink(self) -> None:
        """Remove the segment system-wide (owner only; idempotent)."""
        if not self._owner or self._unlinked:
            return
        self._unlinked = True
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()


def _align(offset: int, align: int = 8) -> int:
    return (offset + align - 1) // align * align


class SharedCSR:
    """A hypergraph's CSR and incidence arrays in shared memory.

    ``from_hypergraph`` is called once by the parent; workers call
    ``attach(descriptor)`` and read the arrays by field name
    (``edge_ptr``, ``edge_pins``, ``node_ptr``, ``node_edges``,
    ``node_weights``, ``edge_weights``), so they never pay the O(pins)
    incidence transpose again.
    """

    def __init__(self, arrays: SharedArrays, n: int) -> None:
        self._arrays = arrays
        self.n = int(n)

    @classmethod
    def from_hypergraph(cls, graph: Hypergraph) -> "SharedCSR":
        ptr, pins = graph.csr()
        node_ptr, node_edges = graph.incidence()
        return cls(SharedArrays.create({
            "edge_ptr": ptr,
            "edge_pins": pins,
            "node_weights": graph.node_weights,
            "edge_weights": graph.edge_weights,
            "node_ptr": node_ptr,
            "node_edges": node_edges,
        }), graph.n)

    @classmethod
    def attach(cls, descriptor: dict) -> "SharedCSR":
        return cls(SharedArrays.attach(descriptor["arrays"]), descriptor["n"])

    def descriptor(self) -> dict:
        return {"arrays": self._arrays.descriptor(), "n": self.n}

    def __getitem__(self, field: str) -> np.ndarray:
        return self._arrays[field]

    @property
    def segment_name(self) -> str:
        return self._arrays.name

    # -- lifecycle (delegates) ------------------------------------------

    def close(self) -> None:
        self._arrays.close()

    def unlink(self) -> None:
        self._arrays.unlink()

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc) -> None:
        self._arrays.__exit__(*exc)
