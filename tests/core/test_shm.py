"""Shared-memory CSR handoff: lifecycle, attached arrays, kill safety.

The lifecycle rules under test are the ones ``repro.core.shm`` promises
to absorb: owners unlink, attachers never do; an attacher is never
registered with the resource tracker; and a SIGKILLed owner leaks no
``/dev/shm`` segment (the tracker unlinks post-mortem).
"""

from __future__ import annotations

import gc
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import Hypergraph
from repro.core.shm import SharedArrays, SharedCSR
from repro.errors import SharedMemoryError
from repro.generators import streaming_planted_hypergraph


def _segment_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


def _arrays() -> dict[str, np.ndarray]:
    return {
        "a": np.arange(17, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 9),
        "c": np.array([[1, 2], [3, 4]], dtype=np.int32),
    }


class TestSharedArrays:
    def test_round_trip_values_shapes_dtypes(self):
        src = _arrays()
        with SharedArrays.create(src) as owner:
            att = SharedArrays.attach(owner.descriptor())
            for name, arr in src.items():
                for side in (owner, att):
                    got = side[name]
                    assert got.shape == arr.shape
                    assert got.dtype == arr.dtype
                    assert np.array_equal(got, arr)
            att.close()

    def test_descriptor_is_small_and_json_safe(self):
        with SharedArrays.create(_arrays()) as owner:
            desc = owner.descriptor()
            wire = json.dumps(desc)          # what crosses the pipe
            assert len(wire) < 512
            assert json.loads(wire) == desc

    def test_writes_visible_to_attacher(self):
        with SharedArrays.create(_arrays()) as owner:
            att = SharedArrays.attach(owner.descriptor())
            owner["a"][3] = 999
            assert att["a"][3] == 999        # same pages, no copy
            att.close()

    def test_owner_exit_unlinks_segment(self):
        owner = SharedArrays.create(_arrays())
        name = owner.name
        assert _segment_exists(name)
        with owner:
            pass
        assert not _segment_exists(name)

    def test_attacher_close_leaves_segment(self):
        with SharedArrays.create(_arrays()) as owner:
            with SharedArrays.attach(owner.descriptor()):
                pass                         # attacher closes, never unlinks
            assert _segment_exists(owner.name)
            again = SharedArrays.attach(owner.descriptor())
            assert np.array_equal(again["a"], _arrays()["a"])
            again.close()

    def test_dropped_attacher_does_not_break_owner(self):
        """In-process attach must not disturb the owner's tracker entry."""
        owner = SharedArrays.create(_arrays())
        att = SharedArrays.attach(owner.descriptor())
        att.close()
        del att
        gc.collect()
        assert _segment_exists(owner.name)
        owner.close()
        owner.unlink()
        assert not _segment_exists(owner.name)

    def test_unlink_idempotent(self):
        owner = SharedArrays.create(_arrays())
        owner.close()
        owner.unlink()
        owner.unlink()                       # second call is a no-op

    def test_attach_unknown_segment_raises(self):
        with pytest.raises(SharedMemoryError):
            SharedArrays.attach({"seg": "repro_shm_no_such_segment",
                                 "fields": {"a": [[1], "<i8"]}})

    def test_unknown_field_raises_keyerror(self):
        with SharedArrays.create(_arrays()) as owner:
            with pytest.raises(KeyError):
                owner["nope"]


class TestSharedCSR:
    @pytest.fixture
    def graph(self) -> Hypergraph:
        g, _ = streaming_planted_hypergraph(60, 3, 90, 12, edge_size=3,
                                            rng=11)
        return g

    def test_hypergraph_round_trip(self, graph):
        """An attacher reads the CSR, incidence and weight arrays the
        owner published, field by field (as the RoundPool workers do)."""
        with SharedCSR.from_hypergraph(graph) as shared:
            att = SharedCSR.attach(shared.descriptor())
            assert att.n == graph.n
            expected = {"edge_ptr": graph.csr()[0],
                        "edge_pins": graph.csr()[1],
                        "node_ptr": graph.incidence()[0],
                        "node_edges": graph.incidence()[1],
                        "node_weights": graph.node_weights,
                        "edge_weights": graph.edge_weights}
            for field, want in expected.items():
                assert np.array_equal(att[field], want), field
            att.close()


# The victim is the 10^6-pin instance of bench_scale: its levels keep
# their pool segments for tenths of a second, well past the test's 50 ms
# registration margin, while a 30 000-node victim's segments came and
# went between two snapshots on a 2-CPU host and the test skipped.
_KILL_CHILD = """\
from repro.generators import streaming_planted_hypergraph
from repro.partitioners import multilevel_partition

g, _ = streaming_planted_hypergraph(300_000, 8, 180_000, 20_000, edge_size=5,
                                    rng=3)
multilevel_partition(g, 8, eps=0.05, rng=7, n_jobs=2)
"""


class TestKillMidRun:
    def test_sigkill_leaves_no_orphan_segments(self, tmp_path):
        """SIGKILL the owner mid-V-cycle; the tracker must clean /dev/shm.

        The owner's handles stay registered with its resource tracker
        precisely for this moment: when the process dies without running
        any Python cleanup, the tracker notices the closed pipe and
        unlinks every registered segment post-mortem.

        The guarantee covers *registered* segments.  ``shm_open`` and
        the tracker registration are not one atomic step in CPython, so
        a kill landing in the microseconds between them (or while the
        lazily-started tracker process is still spawning, on the very
        first segment) can strand that one segment — an upstream race,
        not a lifecycle bug here.  The test therefore asserts cleanup
        only for segments observed in two snapshots 50 ms apart, which
        have provably finished registering, and sweeps any stray from
        the race window itself.
        """
        script = tmp_path / "victim.py"
        script.write_text(_KILL_CHILD)
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen([sys.executable, str(script)], env=env)

        def snapshot() -> set[str]:
            return {p.name for p in Path("/dev/shm").iterdir()
                    if p.name.startswith(f"repro_shm_{proc.pid}_")}

        try:
            registered: set[str] = set()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline and proc.poll() is None:
                first = snapshot()
                if first:
                    time.sleep(0.05)        # registration margin
                    registered = first & snapshot()
                    if registered:
                        break
                time.sleep(0.01)
            proc.kill()
            proc.wait(timeout=30)
            if not registered:
                pytest.skip("run finished before a registered segment "
                            "was observed")
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                leftovers = registered & snapshot()
                if not leftovers:
                    break
                time.sleep(0.05)
            assert not leftovers, (
                f"orphaned shared-memory segments after SIGKILL: "
                f"{sorted(leftovers)}")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
            for stray in snapshot():        # the shm_open→register window
                (Path("/dev/shm") / stray).unlink(missing_ok=True)
