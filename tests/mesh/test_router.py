"""Router behaviour: routing, failover, requeue-exactly-once.

The unit half exercises ring-order and hedge-delay logic on an
unstarted :class:`Router` (no sockets, no subprocesses).  The live half
brings up real ``repro serve`` shard processes through
:func:`repro.mesh.harness.mesh_up` and drives the router over real
sockets, including SIGKILL mid-batch — the crash story ISSUE 9's gates
rest on: an acknowledged job is requeued exactly once and never lost,
and a completed key resubmitted after its owner died is a cache hit on
a surviving shard.
"""

from __future__ import annotations

import time

import pytest

from repro.errors import (JobNotFoundError, NoShardAvailableError,
                          ServeClientError)
from repro.mesh import MeshConfig, Router, ShardSpec
from repro.mesh.harness import mesh_up


def req(seed: int, mode: str = "sync", n: int = 60) -> dict:
    return {"op": "partition",
            "graph": {"generator": {"kind": "random", "n": n,
                                    "seed": seed}},
            "k": 2, "eps": 0.1, "algorithm": "greedy", "seed": seed,
            "mode": mode, "deadline_s": 60.0}


# ----------------------------------------------------------------------
# Unit: no sockets, no subprocesses
# ----------------------------------------------------------------------
def _bare_router(count: int = 3, **overrides) -> Router:
    shards = tuple(ShardSpec(f"s{i}", "127.0.0.1", 1 + i)
                   for i in range(count))
    return Router(MeshConfig(shards=shards, **overrides))


class TestRouting:
    def test_alive_order_starts_at_ring_owner(self):
        router = _bare_router()
        for key in (f"csr:{i:064d}" for i in range(20)):
            order = router._alive_order(key)
            assert order[0] == router.ring.assign(key)
            assert sorted(order) == sorted(router.shards)

    def test_down_shards_are_skipped_not_shuffled(self):
        router = _bare_router()
        key = "csr:" + "ab" * 32
        full = router._alive_order(key)
        router._mark_down(full[0])
        assert router._alive_order(key) == full[1:]

    def test_all_down_raises(self):
        router = _bare_router()
        for sid in list(router.shards):
            router._mark_down(sid)
        with pytest.raises(NoShardAvailableError):
            router._alive_order("anything")

    def test_mark_down_is_idempotent_in_metrics(self):
        router = _bare_router()
        router._mark_down("s0")
        router._mark_down("s0")
        assert router.metrics.counters["shard_down_marks"] == 1


class TestHedgeDelay:
    def test_empty_window_uses_max(self):
        router = _bare_router(hedge_min_s=0.05, hedge_max_s=1.0)
        assert router._hedge_delay() == 1.0

    def test_fast_traffic_clamps_to_min(self):
        router = _bare_router(hedge_min_s=0.05, hedge_max_s=1.0)
        router._lat.extend([0.002] * 32)
        assert router._hedge_delay() == 0.05

    def test_slow_traffic_clamps_to_max(self):
        router = _bare_router(hedge_min_s=0.05, hedge_max_s=1.0)
        router._lat.extend([10.0] * 32)
        assert router._hedge_delay() == 1.0

    def test_midrange_tracks_p50_not_tail(self):
        router = _bare_router(hedge_min_s=0.05, hedge_max_s=5.0)
        # one contaminating outlier must not move the trigger
        router._lat.extend([0.05] * 20 + [4.0])
        assert router._hedge_delay() == pytest.approx(0.2)


# ----------------------------------------------------------------------
# Live: real shard subprocesses behind an in-process router
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mesh(tmp_path_factory):
    cache = tmp_path_factory.mktemp("mesh-cache")
    with mesh_up(2, str(cache)) as handle:
        yield handle


class TestHappyPath:
    def test_sync_solve_routes_and_tags_shard(self, mesh):
        with mesh.client() as c:
            out = c.partition(req(1))
            assert out["status"] == "done"
            assert len(out["result"]["labels"]) == 60
            assert out["shard"] in ("s0", "s1")
            # identical request: shared-cache hit, identical routing
            again = c.partition(req(1))
            assert again.get("cached")
            assert again["shard"] == out["shard"]

    def test_async_job_gets_router_id_and_completes(self, mesh):
        with mesh.client() as c:
            handle = c.submit(req(2, mode="async"))
            rid = handle["job_id"]
            assert rid.startswith("m") and len(rid) == 8
            done = c.wait(rid, timeout_s=60)
            assert done["status"] == "done"
            assert done["job_id"] == rid
            assert any(j["job_id"] == rid for j in c.jobs())

    def test_unknown_router_id_is_404(self, mesh):
        with mesh.client() as c:
            with pytest.raises(JobNotFoundError):
                c.job("m9999999")

    def test_health_mesh_info_and_metrics(self, mesh):
        with mesh.client() as c:
            health = c.health()
            assert health["role"] == "mesh-router"
            assert set(health["shards"]) == {"s0", "s1"}
            assert all(s["alive"] for s in health["shards"].values())
            info = c._checked("GET", "/v1/mesh")
            assert info["shards"] == ["s0", "s1"]
            assert info["down"] == []
            text = c.metrics_text()
            assert "repro_mesh_http_connections_total" in text


class TestCrashRecovery:
    def test_sigkill_midbatch_requeues_exactly_once(self, tmp_path):
        slow = {"s0": 0.3, "s1": 0.3}
        with mesh_up(2, str(tmp_path), slow=slow,
                     probe_interval_s=0.1) as mesh:
            with mesh.client() as c:
                rids = [c.submit(req(100 + i, mode="async"))["job_id"]
                        for i in range(6)]
                router = mesh.router
                by_shard: dict[str, int] = {}
                for rid in rids:
                    sid = router._jobs[rid].shard
                    by_shard[sid] = by_shard.get(sid, 0) + 1
                victim = max(by_shard, key=lambda s: by_shard[s])
                time.sleep(0.2)         # let the victim start working
                mesh.supervisor.kill(victim)
                results = [c.wait(rid, timeout_s=90) for rid in rids]
            assert all(r["status"] == "done" for r in results)
            counters = router.metrics.counters
            assert counters.get("jobs_lost", 0) == 0
            assert counters.get("requeued", 0) >= 1
            # exactly-once: no job was ever submitted more than twice
            assert all(router._jobs[rid].attempts <= 2 for rid in rids)

    def test_completed_key_is_cache_hit_on_surviving_shard(self, tmp_path):
        with mesh_up(2, str(tmp_path), probe_interval_s=0.1) as mesh:
            with mesh.client() as c:
                first = c.partition(req(7))
                assert first["status"] == "done"
                owner = first["shard"]
                mesh.supervisor.kill(owner)
                again = c.partition(req(7))
            assert again.get("cached"), again
            assert again["shard"] != owner
            assert again["result"] == first["result"]

    def test_all_shards_down_is_503(self, tmp_path):
        with mesh_up(2, str(tmp_path), probe_interval_s=5.0) as mesh:
            for sid in ("s0", "s1"):
                mesh.supervisor.kill(sid)
            with mesh.client(timeout_s=30) as c:
                with pytest.raises(ServeClientError, match="503"):
                    c.partition(req(9))

    def test_restarted_shard_rejoins_the_ring(self, tmp_path):
        with mesh_up(2, str(tmp_path), probe_interval_s=0.1) as mesh:
            with mesh.client() as c:
                out = c.partition(req(11))
                owner = out["shard"]
                mesh.supervisor.kill(owner)
                # routing notices the death on first failed dispatch
                c.partition(req(12))
                mesh.supervisor.restart(owner)
                deadline = time.monotonic() + 10
                while time.monotonic() < deadline:
                    health = c.health()
                    if health["shards"][owner]["alive"]:
                        break
                    time.sleep(0.1)
                assert c.health()["shards"][owner]["alive"]
                # the revived shard serves its old keys again (cache
                # survives SIGKILL: it lives on disk, not in the shard)
                again = c.partition(req(11))
                assert again.get("cached")
