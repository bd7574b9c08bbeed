"""Content-addressed checkpoint-train store.

Checkpoint trains are the ``checkpoints/`` namespace of the on-disk
store (:mod:`repro.store`), by default inside the same
``.repro_cache/`` the result cache uses, keyed by a hash of the program
content digest and the capture parameters.  Grid cells that share a
benchmark therefore fast-forward once: the first cell captures and
persists the train, every later cell -- in the same process or a later
one -- restores it.  Writes are atomic, so concurrent runners sharing a
cache directory only ever observe complete trains.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from ..store import Namespace, content_key
from .arch import CHECKPOINT_FORMAT, ArchCheckpoint


def train_key(program_digest: str, every: int, warm: bool) -> str:
    """Content hash identifying one checkpoint train.

    Covers the program's content digest (not its name -- two identically
    built programs share a train), the capture interval, whether warm
    capsules were collected, and the serialization format version.
    """
    return content_key({"format": CHECKPOINT_FORMAT,
                        "program": program_digest,
                        "every": every, "warm": warm})


class CheckpointStore(Namespace):
    """One-JSON-file-per-train store, memoised in-process.

    A train is deserialized at most once per store instance; later loads
    are served from memory.  With ``directory=None`` trains live only in
    that memo, so cells sharing a benchmark still fast-forward once per
    process with the disk cache off.
    """

    FORMAT = CHECKPOINT_FORMAT

    def __init__(self, directory: Optional[Union[str, Path]] = None):
        super().__init__(directory)
        self._memo: Dict[str, dict] = {}

    def path(self, key: str) -> Path:
        return self.directory / f"{key}.ckpt.json"

    def load(self, key: str) -> Optional[dict]:
        """Load a train payload: ``{"total_instructions": int,
        "checkpoints": [ArchCheckpoint, ...], "complete": bool,
        "stride": int}``; None on miss/corrupt.

        ``complete`` is True when the capture ran the program to halt;
        an incomplete train covers exactly ``total_instructions``
        retired instructions and can be *extended in place* by resuming
        from its last checkpoint (see
        :func:`repro.checkpoint.sampling.ensure_train`).  ``stride`` is
        the capture interval in effect at the end of the train (it grows
        past ``every`` whenever the train was thinned); 0 means unknown
        and is re-inferred from checkpoint positions on resume.
        """
        train = self._memo.get(key)
        if train is not None or self.directory is None:
            return train
        payload = self._read(key)
        if payload is None:
            return None
        try:
            train = {
                "total_instructions": int(payload["total_instructions"]),
                "checkpoints": [ArchCheckpoint.from_dict(entry)
                                for entry in payload["checkpoints"]],
                "complete": bool(payload.get("complete", True)),
                "stride": int(payload.get("stride", 0)),
            }
        except (KeyError, TypeError, ValueError):
            return None
        self._memo[key] = train
        return train

    def store(self, key: str, checkpoints: List[ArchCheckpoint],
              total_instructions: int, complete: bool = True,
              stride: int = 0) -> None:
        if self.directory is not None:
            self._write(key, {
                "format": CHECKPOINT_FORMAT,
                "total_instructions": total_instructions,
                "complete": bool(complete),
                "stride": int(stride),
                "checkpoints": [ckpt.to_dict() for ckpt in checkpoints],
            })
        self._memo[key] = {"total_instructions": total_instructions,
                           "checkpoints": list(checkpoints),
                           "complete": bool(complete),
                           "stride": int(stride)}
