"""End-to-end HTTP tests: sync/async jobs, caching, backpressure,
deadlines, metrics — through the real server and client."""

from __future__ import annotations

import time

import pytest

from repro.errors import (JobNotFoundError, QueueFullError,
                          ServeClientError, ServeProtocolError)
from repro.lab.journal import read_journal
from repro.serve import ServeClient

SMALL = {"op": "partition",
         "graph": {"generator": {"kind": "random", "n": 40, "seed": 5}},
         "k": 2, "eps": 0.1, "algorithm": "greedy", "seed": 1}

#: Big enough that multilevel occupies the single worker for a while;
#: used to build queue pressure deterministically.
SLOW = {"op": "partition",
        "graph": {"generator": {"kind": "random", "n": 4000, "k": 4,
                                "seed": 9}},
        "k": 4, "eps": 0.1, "algorithm": "multilevel", "seed": 1,
        "deadline_s": 120.0}


def client_for(st, timeout_s: float = 30.0) -> ServeClient:
    return ServeClient("127.0.0.1", st.port, timeout_s=timeout_s)


class TestSyncAndAsync:
    def test_sync_partition(self, serve_factory):
        st = serve_factory()
        with client_for(st) as c:
            out = c.partition({**SMALL, "mode": "sync"})
        assert out["status"] == "done"
        assert sorted(set(out["result"]["labels"])) == [0, 1]
        assert out["result"]["balanced"] is True
        assert out["latency_s"] > 0

    def test_async_submit_poll_done(self, serve_factory):
        st = serve_factory()
        with client_for(st) as c:
            handle = c.submit(SMALL)
            assert handle["job_id"].startswith("j-")
            done = (handle if handle["status"] == "done"
                    else c.wait(handle["job_id"], timeout_s=30))
            assert done["status"] == "done"
            assert "labels" in done["result"]
            listed = c.jobs()
        assert any(j["job_id"] == handle["job_id"] for j in listed)

    def test_identical_resubmission_is_cache_hit(self, serve_factory):
        st = serve_factory()
        with client_for(st) as c:
            first = c.partition({**SMALL, "mode": "sync"})
            again = c.partition({**SMALL, "mode": "sync"})
        assert first["cached"] is False
        assert again["cached"] is True
        assert again["result"] == first["result"]

    def test_schedule_and_recognize_ops(self, serve_factory):
        st = serve_factory()
        hdag = {"generator": {"kind": "hyperdag-stencil", "n": 5,
                              "seed": 0}}
        with client_for(st) as c:
            rec = c.partition({"op": "recognize", "graph": hdag,
                               "mode": "sync"})
            sched = c.partition({"op": "schedule", "graph": hdag,
                                 "k": 2, "mode": "sync"})
        assert rec["result"]["is_hyperdag"] is True
        assert sched["result"]["makespan"] >= sched["result"]["lower_bound"]

    def test_solver_failure_is_a_clean_job_error(self, serve_factory):
        st = serve_factory()
        bad = {**SMALL, "graph": {"hgr": "not a header\n"}}
        with client_for(st) as c:
            out = c.partition({**bad, "mode": "sync"})
        assert out["status"] == "error"
        assert "InvalidHypergraph" in out["error"]


class TestProtocolErrors:
    def test_bad_request_maps_to_400(self, serve_factory):
        st = serve_factory()
        with client_for(st) as c, pytest.raises(ServeProtocolError):
            c.partition({"op": "nope", "graph": {}})

    def test_unknown_job_maps_to_404(self, serve_factory):
        st = serve_factory()
        with client_for(st) as c, pytest.raises(JobNotFoundError):
            c.job("j-does-not-exist")

    def test_unknown_route_raises_client_error(self, serve_factory):
        st = serve_factory()
        with client_for(st) as c, pytest.raises((ServeClientError,
                                                 JobNotFoundError)):
            c._checked("GET", "/v2/everything")


class TestBackpressure:
    # Each test occupies the single worker with SLOW; debug_slow_s keeps
    # it busy for a fixed time however fast the solver gets.
    def test_shed_with_retry_after_past_queue_limit(self, serve_factory):
        st = serve_factory(workers=1, queue_limit=2, batch_window_s=0.0,
                           debug_slow_s=2.0)
        with client_for(st) as c:
            c.submit(SLOW)                        # occupies the worker
            time.sleep(0.1)                       # let it dispatch
            for i in range(2):                    # fill the queue
                c.submit({**SLOW, "seed": 100 + i})
            with pytest.raises(QueueFullError) as exc:
                c.submit({**SLOW, "seed": 999})
            assert exc.value.retry_after_s >= 1
            health = c.health()
        assert health["metrics"]["counters"]["shed"] >= 1

    def test_queued_job_past_deadline_times_out_unrun(self, serve_factory):
        st = serve_factory(workers=1, batch_window_s=0.0, debug_slow_s=2.0)
        with client_for(st) as c:
            c.submit(SLOW)                        # occupies the worker
            time.sleep(0.1)
            handle = c.submit({**SMALL, "seed": 77, "deadline_s": 0.2})
            out = c.wait(handle["job_id"], timeout_s=30)
        assert out["status"] == "timeout"
        assert "deadline" in out["error"]

    def test_cancel_queued_job(self, serve_factory):
        st = serve_factory(workers=1, batch_window_s=0.0, debug_slow_s=2.0)
        with client_for(st) as c:
            c.submit(SLOW)
            time.sleep(0.1)
            handle = c.submit({**SMALL, "seed": 88, "deadline_s": 60.0})
            out = c.cancel(handle["job_id"])
        assert out["status"] == "cancelled"


class TestBatching:
    def test_small_jobs_coalesce_into_one_dispatch(self, serve_factory,
                                                   tmp_path):
        journal = tmp_path / "serve.jsonl"
        st = serve_factory(workers=1, batch_window_s=0.25, batch_max=8,
                           journal_path=str(journal))
        with client_for(st) as c:
            handles = [c.submit({**SMALL, "seed": 1000 + i})
                       for i in range(5)]
            for h in handles:
                assert c.wait(h["job_id"], timeout_s=60)["status"] == "done"
        sizes = [r["size"] for r in read_journal(journal)
                 if r["event"] == "serve_dispatch"]
        assert max(sizes) >= 2, f"no coalesced dispatch in {sizes}"
        assert sum(sizes) == 5


class TestObservability:
    def test_healthz_and_metrics(self, serve_factory):
        st = serve_factory()
        with client_for(st) as c:
            c.partition({**SMALL, "mode": "sync"})
            c.partition({**SMALL, "mode": "sync"})   # cache hit
            health = c.health()
            text = c.metrics_text()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        assert health["queue_depth"] == 0
        counters = health["metrics"]["counters"]
        assert counters["jobs_done"] >= 2
        assert counters["cache_hits"] >= 1
        assert "repro_serve_http_requests_total" in text
        assert "repro_serve_request_latency_p50_seconds" in text
        assert "repro_serve_cache_hit_rate" in text
        assert "repro_serve_queue_depth" in text

    def test_worker_counters_surface(self, serve_factory):
        st = serve_factory()
        req = {**SMALL, "algorithm": "multilevel",
               "graph": {"generator": {"kind": "random", "n": 200,
                                       "seed": 11}}}
        with client_for(st) as c:
            out = c.partition({**req, "mode": "sync"})
            text = c.metrics_text()
        assert out["status"] == "done"
        assert out["counters"], "instrument counters should travel back"
        assert "repro_serve_worker_counter" in text
