"""``repro.sim`` — discrete-event scheduling simulation (Section 7).

Executes (hyper)DAG plans on hierarchical machines (Definition 7.1)
under pluggable schedulers with imperfect duration information, and
answers the question static schedules cannot: *how does this
partition actually perform under network contention and noisy
runtimes?*

Entry points: :func:`simulate` (one deterministic run),
:class:`SimPlan` (task graphs), :data:`SCHEDULERS` (the zoo),
``repro sim run|compare`` (CLI) and the serve ``simulate`` op.
"""

from .durations import DURATION_KINDS, INFORMATION_MODES, DurationSpec
from .network import NetworkModel
from .plan import SimPlan, weighted_lower_bound
from .schedulers import (
    SCHEDULERS,
    Scheduler,
    SimContext,
    Update,
    make_scheduler,
    register_scheduler,
)
from .simulator import SimTrace, simulate

#: Balance slack ε of the partition feeding the partition-aware
#: schedulers (``locked``, ``work-steal``) in ``repro sim``, the serve
#: ``simulate`` op and ``benchmarks/bench_sim.py``.
PARTITION_EPS = 0.1

__all__ = [
    "DURATION_KINDS",
    "INFORMATION_MODES",
    "DurationSpec",
    "NetworkModel",
    "PARTITION_EPS",
    "SCHEDULERS",
    "Scheduler",
    "SimContext",
    "SimPlan",
    "SimTrace",
    "Update",
    "make_scheduler",
    "register_scheduler",
    "simulate",
    "weighted_lower_bound",
]
