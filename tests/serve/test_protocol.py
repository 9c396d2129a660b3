"""Request validation, cache keying, and the deadline/pool primitives."""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.errors import (DeadlineExceededError, ReproError,
                          ServeProtocolError)
from repro.serve import job_key, parse_job_request, with_deadline
from repro.serve.http import HttpError
from repro.serve.pool import BatchMember, run_batch
from repro.serve.protocol import MAX_PINS
from repro.serve.runner import solve
from repro.serve.stream import request_from_header

GEN = {"generator": {"kind": "random", "n": 30, "seed": 3}}


def req(**over):
    base = {"op": "partition", "graph": GEN, "k": 2, "eps": 0.1,
            "algorithm": "greedy", "seed": 1}
    base.update(over)
    return base


class TestParseJobRequest:
    def test_minimal_defaults(self):
        r = parse_job_request({"graph": GEN})
        assert r.op == "partition"
        assert r.params["algorithm"] == "multilevel"
        assert r.params["metric"] == "connectivity"
        assert r.seed == 0 and r.mode == "auto" and r.use_cache

    @pytest.mark.parametrize("bad", [
        None, [], "x",
        {},                                          # graph missing
        {"graph": {}},                               # no graph form
        {"graph": {"hgr": "", "edges": []}},         # two graph forms
        {"graph": GEN, "op": "nope"},
        {"graph": GEN, "k": 0},
        {"graph": GEN, "k": "two"},
        {"graph": GEN, "eps": 2.0},
        {"graph": GEN, "algorithm": "magic"},
        {"graph": GEN, "metric": "vibes"},
        {"graph": GEN, "deadline_s": 0},
        {"graph": GEN, "mode": "later"},
        {"graph": GEN, "use_cache": "yes"},
        {"graph": GEN, "seed": 1.5},
        {"graph": {"generator": {"kind": "wat"}}},
        {"graph": {"n": 2, "edges": [[0, 5]]}},      # pin out of range
        {"graph": {"csr": {"n": 2, "ptr": [0, 3], "pins": [0, 1]}}},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ServeProtocolError):
            parse_job_request(bad)

    @pytest.mark.parametrize("form", ["edges", "csr", "stream"])
    def test_node_count_is_bounded_by_max_pins(self, form):
        def graph(n):
            return {"edges": {"n": n, "edges": [[0, 1]]},
                    "csr": {"csr": {"n": n, "ptr": [0, 2], "pins": [0, 1]}},
                    "stream": {"stream": {"digest": "ab" * 32, "n": n,
                                          "m": 1, "pins": 2}}}[form]
        with pytest.raises(ServeProtocolError, match=str(MAX_PINS)):
            parse_job_request(req(graph=graph(MAX_PINS + 1)))
        r = parse_job_request(req(graph=graph(MAX_PINS)))
        assert r.est_pins == 2

    @pytest.mark.parametrize("field", ["m", "n"])
    def test_hgr_header_counts_are_bounded_by_max_pins(self, field):
        """The header is found as parse_hgr finds it (BOM, comments,
        blank lines); its counts answer 400 before any worker sizes an
        array by them, and ``n`` counts in the admission estimate."""
        def hgr(v):
            m, n = (v, 3) if field == "m" else (1, v)
            return {"hgr": f"\ufeff% exported\n\n {m} {n}\n1 2\n"}
        for v in (MAX_PINS + 1, 10**10):
            with pytest.raises(ServeProtocolError, match=str(MAX_PINS)):
                parse_job_request(req(graph=hgr(v)))
        r = parse_job_request(req(graph=hgr(1000)))
        assert r.est_pins == 6 + (1000 if field == "n" else 3)

    @pytest.mark.parametrize("field", ["n", "m"])
    def test_stream_head_dimensions_are_bounded_by_max_pins(self, field):
        def head(v):
            return {"request": {"k": 2, "seed": 1}, "digest": "ab" * 32,
                    "csr": {"n": 4, "m": 1, "pins": 2, field: v}}
        with pytest.raises(HttpError) as exc:
            request_from_header(head(MAX_PINS + 1))
        assert exc.value.status == 413 and exc.value.close
        r = request_from_header(head(MAX_PINS))
        assert r.params["graph"]["stream"][field] == MAX_PINS

    def test_serving_controls_do_not_change_cache_key(self):
        a = parse_job_request(req(deadline_s=1.0, mode="sync"))
        b = parse_job_request(req(deadline_s=9.0, mode="async",
                                  use_cache=False))
        assert job_key(a) == job_key(b)

    def test_solve_params_change_cache_key(self):
        assert job_key(parse_job_request(req(seed=1))) != \
            job_key(parse_job_request(req(seed=2)))
        assert job_key(parse_job_request(req(k=2))) != \
            job_key(parse_job_request(req(k=3)))

    def test_graph_forms_are_distinct_keys(self):
        edges = {"n": 3, "edges": [[0, 1], [1, 2]]}
        csr = {"csr": {"n": 3, "ptr": [0, 2, 4], "pins": [0, 1, 1, 2]}}
        assert job_key(parse_job_request(req(graph=edges))) != \
            job_key(parse_job_request(req(graph=csr)))


class TestSolve:
    def test_partition_result_shape(self):
        r = parse_job_request(req())
        out = solve(seed=r.seed, **r.params)
        assert out["op"] == "partition" and len(out["labels"]) == 30
        assert set(out["labels"]) <= {0, 1}
        assert out["connectivity"] >= out["cut_net"] >= 0
        assert out["balanced"] is True

    def test_recognize_and_schedule(self):
        hdag = {"generator": {"kind": "hyperdag-fft", "n": 4, "seed": 0}}
        rec = parse_job_request({"op": "recognize", "graph": hdag})
        out = solve(seed=0, **rec.params)
        assert out["is_hyperdag"] is True
        sched = parse_job_request({"op": "schedule", "graph": hdag,
                                   "k": 3})
        out = solve(seed=0, **sched.params)
        assert out["makespan"] >= out["lower_bound"] >= 1
        assert len(out["procs"]) == out["n"]

    def test_schedule_on_non_hyperdag_is_a_repro_error(self):
        r = parse_job_request({"op": "schedule", "graph": GEN, "k": 2})
        with pytest.raises(ReproError):
            solve(seed=0, **r.params)

    def test_hgr_upload_roundtrip(self):
        r = parse_job_request(req(graph={"hgr": "2 3\r\n1 2\r\n2 3\r\n"}))
        out = solve(seed=1, **r.params)
        assert out["n"] == 3 and out["m"] == 2

    def test_malformed_hgr_upload_is_a_repro_error(self):
        r = parse_job_request(req(graph={"hgr": "not a header\n"}))
        with pytest.raises(ReproError):
            solve(seed=1, **r.params)


class TestWithDeadline:
    def test_in_time_passes_value_through(self):
        async def main():
            return await with_deadline(asyncio.sleep(0, result=41), 5.0)
        assert asyncio.run(main()) == 41

    def test_timeout_raises_library_error(self):
        async def main():
            await with_deadline(asyncio.sleep(30), 0.05)
        with pytest.raises(DeadlineExceededError):
            asyncio.run(main())

    def test_none_means_unbounded(self):
        async def main():
            return await with_deadline(asyncio.sleep(0, result=7), None)
        assert asyncio.run(main()) == 7


class TestPoolDeadlines:
    def test_expired_member_is_killed_and_reported(self, tmp_path):
        """A member whose deadline already passed never produces a
        result: the worker is killed and the outcome is 'timeout'."""
        r = parse_job_request(req())
        member = BatchMember(
            key="x", seed=r.seed, params=r.params,
            outfile=tmp_path / "out.json", errfile=tmp_path / "err.json",
            deadline_mono=time.monotonic() - 1.0)
        outcomes = {}

        async def main():
            await run_batch([member],
                            on_outcome=lambda m, o: outcomes.__setitem__(
                                m.key, o))
        asyncio.run(main())
        assert outcomes["x"].status == "timeout"
        assert not (tmp_path / "out.json").exists()

    def test_batch_streams_results_and_contains_failures(self, tmp_path):
        """One bad member (malformed hgr) fails alone; its sibling in
        the same worker still completes."""
        good = parse_job_request(req())
        bad = parse_job_request(req(graph={"hgr": "bogus\n"}))
        members = [
            BatchMember(key="good", seed=good.seed, params=good.params,
                        outfile=tmp_path / "g.json",
                        errfile=tmp_path / "g.err", deadline_mono=None),
            BatchMember(key="bad", seed=bad.seed, params=bad.params,
                        outfile=tmp_path / "b.json",
                        errfile=tmp_path / "b.err", deadline_mono=None),
        ]
        outcomes = {}

        async def main():
            await run_batch(members,
                            on_outcome=lambda m, o: outcomes.__setitem__(
                                m.key, o))
        asyncio.run(main())
        assert outcomes["good"].status == "ok"
        assert "labels" in outcomes["good"].payload["values"]
        assert outcomes["bad"].status == "error"
        assert "InvalidHypergraph" in outcomes["bad"].error


class TestGraphHandoff:
    """Large inline specs are parsed once in the server process and
    inherited by the forked batch worker; small ones are parsed there."""

    @staticmethod
    def _big_hgr_request(**over):
        # ~180 KB hgr upload: well past _PARENT_PARSE_MIN_BYTES
        import tempfile
        from pathlib import Path
        from repro.generators import streaming_uniform_hypergraph
        from repro.io.hmetis import write_hgr
        g = streaming_uniform_hypergraph(3000, 6000, 4, rng=5)
        with tempfile.TemporaryDirectory() as td:
            path = Path(td) / "g.hgr"
            write_hgr(g, path)
            text = path.read_text()
        return parse_job_request(req(graph={"hgr": text}, **over))

    @staticmethod
    def _run(monkeypatch, batches):
        """Submit each batch of requests as one dispatch; return the
        resolved jobs per batch and the parent-side parse count."""
        from repro.serve import jobs as jobs_mod
        parses = []
        real = jobs_mod.build_graph

        def counting(params):
            parses.append(params["graph"])
            return real(params)

        monkeypatch.setattr(jobs_mod, "build_graph", counting)

        async def main():
            mgr = jobs_mod.JobManager(workers=1, batch_window_s=0.2,
                                      small_pins=1 << 20)
            mgr.start()
            out = []
            try:
                for batch in batches:
                    submitted = [mgr.submit(r) for r in batch]
                    for job in submitted:
                        await with_deadline(asyncio.shield(job.future),
                                            120.0)
                    out.append(submitted)
            finally:
                await mgr.stop()
            return out
        return asyncio.run(main()), parses

    def test_members_sharing_a_large_spec_share_one_parse(
            self, monkeypatch):
        from repro.serve.jobs import _PARENT_PARSE_MIN_BYTES, \
            _spec_payload_bytes
        big = [self._big_hgr_request(seed=s) for s in range(6)]
        assert _spec_payload_bytes(big[0].params["graph"]) \
            >= _PARENT_PARSE_MIN_BYTES
        (first, second), parses = self._run(monkeypatch,
                                            [big[:3], big[3:]])
        assert all(j.status == "done" for j in first + second)
        assert all(j.attempts == 1 for j in first + second)
        # one parse for the first batch of three, none for the second
        assert len(parses) == 1
        assert all(j.result["pins"] == 24000 for j in first + second)

    def test_small_specs_are_parsed_in_the_worker(self, monkeypatch):
        r = parse_job_request(req())
        ([job],), parses = self._run(monkeypatch, [[r]])
        assert job.status == "done" and parses == []
        assert job.result == solve(seed=r.seed, **r.params)

    def test_batch_result_matches_inline_and_leaves_no_segments(
            self, monkeypatch):
        import glob
        before = set(glob.glob("/dev/shm/repro*"))
        r = self._big_hgr_request()
        ([job],), parses = self._run(monkeypatch, [[r]])
        assert job.status == "done" and len(parses) == 1
        # worker solved the inherited graph, not a truncated copy...
        assert job.result["n"] == 3000 and job.result["pins"] == 24000
        # ...and the result is exactly what an in-process solve yields
        assert job.result == solve(seed=r.seed, **r.params)
        assert set(glob.glob("/dev/shm/repro*")) == before
