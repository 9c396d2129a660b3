"""Content-addressed summary cache backing ``repro analyze --incremental``.

One JSON file per analyzed module under ``.analyze-cache/``, keyed by
``sha256(engine version, path, file bytes)`` — the same
content-address discipline as ``.lab-cache/``.  A hit replays the
extract stage (summary + embedded file-local findings) without
parsing; the whole-program link/check stages always run, so a change
in module B is re-judged against every importer of B even though those
importers were served from cache.

Writes are atomic (temp file + ``os.replace``), so a killed run never
leaves a half-written summary, and corrupt or version-skewed entries
read as misses.  The key includes :data:`~repro.analyze.index
.ENGINE_VERSION`, so shipping new rules invalidates every entry
without a manual flush.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

from .index import ENGINE_VERSION, ModuleSummary

__all__ = ["DEFAULT_CACHE_DIR", "SummaryCache"]

DEFAULT_CACHE_DIR = ".analyze-cache"


class SummaryCache:
    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self.dir = Path(cache_dir if cache_dir is not None
                        else DEFAULT_CACHE_DIR)

    def _entry(self, posix: str, raw: bytes) -> Path:
        h = hashlib.sha256()
        h.update(ENGINE_VERSION.encode())
        h.update(b"\0")
        h.update(posix.encode())
        h.update(b"\0")
        h.update(raw)
        key = h.hexdigest()
        return self.dir / key[:2] / f"{key}.json"

    def get(self, posix: str, raw: bytes) -> ModuleSummary | None:
        entry = self._entry(posix, raw)
        try:
            data = json.loads(entry.read_text())
        except (OSError, ValueError):
            return None
        try:
            return ModuleSummary.from_json(data)
        except (KeyError, TypeError, ValueError):
            return None

    def put(self, posix: str, raw: bytes, summary: ModuleSummary) -> None:
        entry = self._entry(posix, raw)
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    json.dump(summary.to_json(), fh, separators=(",", ":"))
                os.replace(tmp, entry)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full cache dir degrades to a cold run; the
            # analysis result is unaffected.
            return
