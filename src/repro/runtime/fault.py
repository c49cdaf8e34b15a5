"""Recovery from worker failures (paper Section 6, "Fault tolerance").

GRAPE reserves an *arbitrator* worker that heart-beats every worker and the
coordinator; on a worker failure the arbitrator transfers the failed
worker's tasks elsewhere, and a standby coordinator takes over on
coordinator failure.

In the simulation:

* failures are scheduled by the one injector, ``exec.step`` specs of a
  :class:`~repro.resilience.faults.FaultPlane`;
* :exc:`WorkerFailure` is how a ``crash`` spec surfaces on the inline
  backends (under the process backend the worker really dies);
* :class:`Arbitrator` implements the recovery policy used by the GRAPE
  engine: it keeps per-fragment state checkpoints and, on failure,
  restores the failed fragment's state so the superstep can be re-run
  (simulating the task transfer to a healthy worker).

The arbitrator has two checkpoint modes.  The default keeps deep copies
in memory — enough while the coordinator process survives.  Passing
``checkpoint_dir`` switches to **disk checkpoints** backed by the durable
store's layout (:meth:`~repro.store.catalog.GraphStore.checkpoint_dir`):
each checkpoint is pickled to a per-run file and atomically renamed into
place, so the state a ``kill -9``'d process-backend worker held can be
restored into a fresh worker; the file is discarded when its run ends.
"""

from __future__ import annotations

import copy
import os
import pickle
import re
from pathlib import Path
from typing import Any, Dict, Optional, Union

__all__ = ["WorkerFailure", "Arbitrator"]


class WorkerFailure(RuntimeError):
    """A simulated worker crash during a superstep."""

    def __init__(self, worker: int, superstep: int):
        super().__init__(f"worker {worker} failed at superstep {superstep}")
        self.worker = worker
        self.superstep = superstep


class Arbitrator:
    """Checkpoint/restore recovery used by the GRAPE engine.

    The engine checkpoints every fragment's mutable state at the end of each
    successful superstep; when a :exc:`WorkerFailure` surfaces, the engine
    asks the arbitrator for the last consistent snapshot and replays the
    superstep (GRAPE's "transfer its computation tasks to another worker").

    Parameters
    ----------
    checkpoint_dir:
        ``None`` (default) keeps checkpoints as in-memory deep copies.
        A directory path enables the disk mode: every checkpoint is
        pickled to a file **unique to this arbitrator instance** (so
        concurrent runs sharing one directory can never clobber — or
        restore — each other's checkpoints) via an atomic temp-file
        rename, so a crash mid-write leaves the previous checkpoint
        intact — the invariant the process-backend kill-recovery path
        relies on.  Disk mode requires picklable fragment states (the
        process backend already enforces that contract).  The engine
        discards the file when its run ends (:meth:`discard`), so a
        long-lived checkpoint directory does not accumulate debris —
        and because a coordinator crash can still leak its file,
        opening the directory garbage-collects any checkpoint whose
        owning pid (embedded in the file name) no longer exists
        (``stale_discarded`` counts them).
    """

    #: disk checkpoint file names: checkpoint-<owner pid>-<nonce>.ckpt
    _CKPT_RE = re.compile(r"^checkpoint-(\d+)-[0-9a-f]+\.ckpt$")

    def __init__(self, checkpoint_dir: Union[str, Path, None] = None):
        self._snapshots: Dict[int, Any] = {}
        self._dir: Optional[Path] = None
        self.checkpoints_written = 0
        self.recoveries = 0
        self.stale_discarded = 0
        if checkpoint_dir is not None:
            self._dir = Path(checkpoint_dir)
            self._dir.mkdir(parents=True, exist_ok=True)
            self._filename = (f"checkpoint-{os.getpid()}-"
                              f"{os.urandom(4).hex()}.ckpt")
            self.stale_discarded = self._gc_stale()

    def _gc_stale(self) -> int:
        """Remove checkpoint files whose owning process is gone.

        A coordinator that crashes between :meth:`checkpoint` and
        :meth:`discard` leaks its file; every file name embeds the
        owner's pid, so on startup any file whose pid no longer exists
        is debris and is unlinked.  Files of live processes (including
        our own pid's other instances) are left alone — they may still
        be restored from.  Returns the number of files removed.
        """
        removed = 0
        for entry in self._dir.glob("checkpoint-*.ckpt"):
            match = self._CKPT_RE.match(entry.name)
            if match is None:
                continue
            pid = int(match.group(1))
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            except (PermissionError, OSError):
                # pid exists (owned by someone else) — not stale
                continue
        return removed

    @property
    def checkpoint_path(self) -> Optional[Path]:
        """Where this instance's disk checkpoints land (``None`` in
        memory mode)."""
        return self._dir / self._filename if self._dir else None

    def checkpoint(self, fragment_states: Dict[int, Any]) -> None:
        """Store a consistent copy of every fragment's state.

        In-memory mode deep-copies; disk mode pickles to the checkpoint
        file atomically (the pickle round trip *is* the copy).
        """
        if self._dir is None:
            self._snapshots = {fid: copy.deepcopy(state)
                               for fid, state in fragment_states.items()}
        else:
            from repro.ioutil import atomic_write_bytes
            atomic_write_bytes(
                self.checkpoint_path,
                pickle.dumps(fragment_states,
                             protocol=pickle.HIGHEST_PROTOCOL))
        self.checkpoints_written += 1

    def restore(self) -> Dict[int, Any]:
        """Return the last consistent snapshot (copied back out, so the
        caller may mutate it freely)."""
        self.recoveries += 1
        if self._dir is None:
            return {fid: copy.deepcopy(state)
                    for fid, state in self._snapshots.items()}
        with open(self.checkpoint_path, "rb") as fh:
            return pickle.load(fh)

    @property
    def has_checkpoint(self) -> bool:
        if self._dir is None:
            return bool(self._snapshots)
        return self.checkpoint_path.is_file()

    def discard(self) -> None:
        """Delete this instance's checkpoint (called when the run that
        owned it ends — successfully or not — so shared checkpoint
        directories stay clean)."""
        self._snapshots = {}
        if self._dir is not None:
            try:
                os.unlink(self.checkpoint_path)
            except OSError:
                pass
