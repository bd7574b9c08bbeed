"""Content-addressed, atomic on-disk JSON store.

``.repro_cache/`` holds two *namespaces* of this store: grid results
(:class:`~repro.harness.experiment.ResultCache`, ``<dir>/<key>.json``)
and checkpoint trains (:class:`~repro.checkpoint.store.CheckpointStore`,
``<dir>/checkpoints/<key>.ckpt.json``).  Each entry is one JSON object
tagged with its namespace's ``"format"`` and named by
:func:`content_key`.  This module owns what the two share: the atomic
write, the format-checked read, the stale-temp sweep and ``gc``.  It
imports nothing else from the package.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import List, Optional, Union

#: Age (seconds) past which an orphaned ``*.tmp.*`` file from a crashed
#: writer is swept when a store opens.  Younger temps may belong to a
#: concurrent writer and are left alone.
STALE_TEMP_SECONDS = 3600.0

#: Conservative floor on the effective age for *timed* temp sweeps.  A
#: caller asking for a shorter horizon still only sweeps temps at least
#: this old: cross-host caches see each other's clocks, and mtimes can
#: jump under clock adjustment, so a "fresh" temp another writer is
#: mid-way through must never be swept by an age heuristic.  Explicit
#: remove-everything sweeps (``max_age <= 0``, e.g. :meth:`Namespace.gc`)
#: bypass the floor.
MIN_STALE_TEMP_SECONDS = 300.0


def content_key(body: dict) -> str:
    """sha256 hex digest of ``body`` as canonical JSON (sorted keys, no
    whitespace): the entry name for the inputs ``body`` describes."""
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Namespace:
    """One kind of entry under a directory.

    A subclass sets :attr:`FORMAT`, defines ``path(key)`` -- the entry
    file for ``key`` -- and builds its ``load``/``store`` on
    :meth:`_read`/:meth:`_write`.  ``directory`` may be None for a
    namespace that keeps nothing on disk.
    """

    #: Format tag of every entry this build can read; set by each
    #: subclass.
    FORMAT: int

    def __init__(self, directory: Optional[Union[str, Path]]):
        self.directory = None if directory is None else Path(directory)

    def path(self, key: str) -> Path:
        raise NotImplementedError

    def namespaces(self) -> List["Namespace"]:
        """The on-disk namespaces :meth:`sweep_stale_temps` and
        :meth:`gc` cover: this one and any nested under it."""
        return [] if self.directory is None else [self]

    def _readable(self, payload) -> bool:
        return isinstance(payload, dict) and \
            payload.get("format") == self.FORMAT

    def _read(self, key: str) -> Optional[dict]:
        try:
            payload = json.loads(self.path(key).read_text())
        except (OSError, ValueError):
            return None
        return payload if self._readable(payload) else None

    def _write(self, key: str, payload: dict) -> None:
        """Atomic: concurrent writers, even on different hosts sharing
        one directory, only ever expose complete entries."""
        final = self.path(key)
        final.parent.mkdir(parents=True, exist_ok=True)
        # pid alone collides across hosts sharing one directory; random
        # bytes keep two writers' temp names apart.
        tmp = final.with_name(
            f"{final.name}.tmp.{os.getpid()}.{os.urandom(6).hex()}")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True))
            tmp.replace(final)
        except BaseException:
            # Anything -- an unserializable value, a failed rename, a
            # KeyboardInterrupt -- must not leak the temp file.
            try:
                tmp.unlink()
            except OSError:
                pass
            raise

    def _glob(self, pattern: str) -> List[Path]:
        """Files matching ``pattern`` in this namespace's own directory."""
        try:
            return list(self.directory.glob(pattern))
        except OSError:
            return []

    def sweep_stale_temps(self,
                          max_age: float = STALE_TEMP_SECONDS) -> int:
        """Delete ``*.tmp.*`` files older than ``max_age`` seconds
        (orphans of crashed writers); returns the number removed.

        Timed sweeps (``max_age > 0``) are defensive about clocks: a
        temp whose mtime lies in the *future* (clock adjustment, or a
        cross-host cache whose writer's clock runs ahead) gets a clamped
        age of zero -- it reads as brand new, never as ancient -- and
        the effective horizon is floored at ``MIN_STALE_TEMP_SECONDS``
        so a concurrent writer's seconds-old temp cannot be swept
        mid-write by an aggressive caller.  ``max_age <= 0`` is the
        explicit remove-everything form (used by :meth:`gc`) and skips
        both protections.
        """
        removed = 0
        now = time.time()
        effective = max(max_age, MIN_STALE_TEMP_SECONDS) \
            if max_age > 0 else 0.0
        for namespace in self.namespaces():
            for tmp in namespace._glob("*.tmp.*"):
                try:
                    if max(0.0, now - tmp.stat().st_mtime) >= effective:
                        tmp.unlink()
                        removed += 1
                except OSError:
                    continue
        return removed

    def gc(self) -> int:
        """Drop every entry this build cannot read -- corrupt JSON or a
        format tag other than its namespace's -- plus all temp files;
        returns the number of files removed."""
        removed = self.sweep_stale_temps(max_age=0.0)
        for namespace in self.namespaces():
            for entry in namespace._glob(namespace.path("*").name):
                try:
                    readable = namespace._readable(
                        json.loads(entry.read_text()))
                except (OSError, ValueError):
                    readable = False
                if not readable:
                    try:
                        entry.unlink()
                        removed += 1
                    except OSError:
                        continue
        return removed
