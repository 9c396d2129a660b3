"""Shard supervision: a reaped shard leaves no open stderr pipe behind."""

from __future__ import annotations

from repro.mesh.shards import ShardSupervisor


def test_reaped_shards_close_their_stderr(tmp_path):
    with ShardSupervisor(2, str(tmp_path)) as sup:
        sup.start()
        killed = sup._children["s0"]
        sup.kill("s0")
        assert killed.proc.stderr.closed
        sup.restart("s0")
        assert sup.alive("s0") and killed.proc.stderr.closed
        live = list(sup._children.values())
        assert not any(c.proc.stderr.closed for c in live)
    assert all(c.proc.stderr.closed for c in live)
