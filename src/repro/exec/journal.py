"""Crash-safe write-ahead sweep journal: durable, resumable batches.

A long sweep's *workers* have been fault-tolerant since the retry layer
landed (:mod:`repro.exec.policy`), but the orchestrating driver process
itself is routinely killed — OOM killer, a scheduler's SIGTERM, Ctrl-C,
a host reboot — and until now that lost every piece of sweep
bookkeeping that was not a finished store entry.  The journal fixes
that: before and after every unit of work the executor appends one
fsync'd JSON line describing the transition, so a killed driver leaves
a readable record of exactly which specs finished (``done``), which
exhausted every attempt (``failed`` / ``timeout``) and which were merely
in flight.  ``--resume`` replays that record: finished specs resolve
from the journal + result store without re-dispatch, persisted failures
are served as :class:`~repro.exec.policy.FailedRun` holes instead of
silently re-running exhausted specs, and the resumed grid is
bit-identical to an uninterrupted run because results are the same
content-addressed payloads either way.

File discipline
---------------
An append-only log of :mod:`repro.durable`: one fsync'd JSON object per
line, replayed corruption-tolerantly — a line that fails to parse is
counted and skipped, never fatal, and the spec it described simply
re-runs.

Sweep identity
--------------
A journal belongs to one *sweep*: the SHA-256 of the ordered spec-hash
list plus the retry policy (:func:`sweep_identity`).  Re-submitting the
same batch — same specs, same order, same policy — therefore finds the
same journal file, which is what makes ``--resume`` safe: it can never
replay a journal onto a different workload.

Record kinds (the ``kind`` field)::

    sweep-start      identity, spec counts, policy     (first line)
    planned          one per unique spec, in order
    dispatched       one per attempt handed to a worker
    done             the spec resolved to a RunResult (source says how)
    failed|timeout   the spec exhausted every attempt; carries the
                     full FailedRun payload so resume can serve it
    interrupted      a graceful signal shutdown flushed and stopped
    sweep-complete   every spec resolved; the journal is finished
    fsck             a store repair report (``python -m repro.exec fsck``)
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import durable
from repro.exec.faults import FaultPlan, maybe_corrupt_journal_line
from repro.exec.policy import FailedRun, RetryPolicy

#: Bump when the record layout changes incompatibly; readers skip
#: records with a newer ``v`` rather than mis-parsing them.
JOURNAL_VERSION = 1

KIND_START = "sweep-start"
KIND_PLANNED = "planned"
KIND_DISPATCHED = "dispatched"
KIND_DONE = "done"
KIND_FAILED = "failed"
KIND_TIMEOUT = "timeout"
KIND_INTERRUPTED = "interrupted"
KIND_COMPLETE = "sweep-complete"
KIND_FSCK = "fsck"


def sweep_identity(
    spec_hashes: Sequence[str], policy: RetryPolicy
) -> str:
    """The sweep's identity: SHA-256 of the ordered hash list + policy.

    The *ordered* batch (duplicates included) is hashed, not the unique
    set: a driver that submits the same cells in a different shape is a
    different sweep.  The policy is part of identity because it changes
    outcomes — a journal of failures recorded under ``retries=0`` must
    not be replayed onto a ``retries=3`` run as if they were final.
    """
    payload = json.dumps(
        {
            "specs": list(spec_hashes),
            "policy": dataclasses.asdict(policy),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def journal_path(journal_dir: Union[str, Path], sweep_id: str) -> Path:
    """Where the journal for ``sweep_id`` lives under ``journal_dir``."""
    return Path(journal_dir) / f"{sweep_id[:16]}.jsonl"


@dataclass
class JournalState:
    """What a replayed journal says about a sweep."""

    sweep_id: str = ""
    path: Optional[Path] = None
    #: spec hash -> the ``done`` record that finished it.
    done: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: spec hash -> the persisted FailedRun for an exhausted spec.
    failures: Dict[str, FailedRun] = field(default_factory=dict)
    #: True once a ``sweep-complete`` record was read.
    complete: bool = False
    #: Total lines seen (parsed or not) — the append sequence continues
    #: from here so the fault schedule never reuses a sequence number.
    lines: int = 0
    #: Lines that failed to parse (torn writes, bit rot) and were skipped.
    corrupt_lines: int = 0
    #: Signals recorded by graceful shutdowns of earlier runs.
    interrupts: List[int] = field(default_factory=list)

    @property
    def resolved(self) -> int:
        """Specs the journal can serve without re-dispatch."""
        return len(self.done) + len(self.failures)


def read_state(path: Union[str, Path]) -> Optional[JournalState]:
    """Replay the journal at ``path``; None when there is no file.

    Corruption-tolerant, same discipline as the ledger: unparsable
    lines are counted and skipped.  Later records win — a spec that
    was journaled ``failed`` and later (``--retry-failed``) ``done``
    reads as done.
    """
    path = Path(path)
    log = durable.replay(path, JOURNAL_VERSION)
    if not log.found:
        return None
    state = JournalState(path=path, lines=log.lines,
                         corrupt_lines=log.corrupt)
    for record in log.records:
        kind = record.get("kind")
        spec = record.get("spec", "")
        if not state.sweep_id and record.get("sweep"):
            state.sweep_id = str(record["sweep"])
        if kind == KIND_DONE and spec:
            state.done[spec] = record
            state.failures.pop(spec, None)
        elif kind in (KIND_FAILED, KIND_TIMEOUT) and spec:
            failure = record.get("failure")
            if isinstance(failure, dict):
                try:
                    state.failures[spec] = FailedRun.from_dict(failure)
                    state.done.pop(spec, None)
                except TypeError:
                    state.corrupt_lines += 1
        elif kind == KIND_INTERRUPTED:
            state.interrupts.append(int(record.get("signal", 0)))
        elif kind == KIND_COMPLETE:
            state.complete = True
    return state


class SweepJournal:
    """Appender for one sweep's journal file.

    Each append is one fsync'd line; the sequence number feeds the
    deterministic ``corrupt-journal`` fault schedule so chaos tests can
    tear specific writes (see
    :func:`repro.exec.faults.maybe_corrupt_journal_line`).
    """

    def __init__(
        self,
        path: Union[str, Path],
        sweep_id: str,
        plan: Optional[FaultPlan] = None,
        seq: int = 0,
    ) -> None:
        self.path = Path(path)
        self.sweep_id = sweep_id
        self.plan = plan
        self._seq = seq

    def append(self, kind: str, **fields: Any) -> None:
        """Durably append one record; crash-safe at every byte."""
        record: Dict[str, Any] = {
            "v": JOURNAL_VERSION,
            "kind": kind,
            "sweep": self.sweep_id,
        }
        record.update(fields)
        length = durable.append_record(self.path, record)
        self._seq += 1
        key = f"{kind}:{fields.get('spec', '')}"
        maybe_corrupt_journal_line(self.plan, self.path, key, self._seq,
                                   length)

    # -- lifecycle shorthands --------------------------------------------------

    def start(self, n_unique: int, n_batch: int,
              policy: RetryPolicy) -> None:
        self.append(KIND_START, specs=n_unique, batch=n_batch,
                    policy=dataclasses.asdict(policy))

    def planned(self, spec_hash: str, benchmark: str, mechanism: str) -> None:
        self.append(KIND_PLANNED, spec=spec_hash, benchmark=benchmark,
                    mechanism=mechanism)

    def dispatched(self, spec_hash: str, attempt: int) -> None:
        self.append(KIND_DISPATCHED, spec=spec_hash, attempt=attempt)

    def done(self, spec_hash: str, benchmark: str, mechanism: str,
             source: str, seconds: float = 0.0) -> None:
        self.append(KIND_DONE, spec=spec_hash, benchmark=benchmark,
                    mechanism=mechanism, source=source,
                    seconds=round(seconds, 6))

    def failed(self, failure: FailedRun) -> None:
        kind = KIND_TIMEOUT if failure.kind == "timeout" else KIND_FAILED
        self.append(kind, spec=failure.spec_hash,
                    failure=failure.describe())

    def interrupted(self, signum: int) -> None:
        self.append(KIND_INTERRUPTED, signal=int(signum))

    def complete(self, n_unique: int) -> None:
        self.append(KIND_COMPLETE, specs=n_unique)


def scan_journals(
    journal_dir: Union[str, Path]
) -> List[Tuple[Path, JournalState]]:
    """Every sweep journal under ``journal_dir`` with its replayed state.

    The fsck report file (``fsck.jsonl``) is not a sweep journal and is
    excluded.  Missing directory reads as no journals.
    """
    journal_dir = Path(journal_dir)
    found: List[Tuple[Path, JournalState]] = []
    try:
        paths = sorted(journal_dir.glob("*.jsonl"))
    except OSError:
        return found
    for path in paths:
        if path.name == "fsck.jsonl":
            continue
        state = read_state(path)
        if state is not None:
            found.append((path, state))
    return found


def hint_incomplete(state: JournalState) -> None:
    """The stderr nudge printed when an interrupted journal is detected."""
    print(
        f"executor: found an interrupted journal for this sweep "
        f"({len(state.done)} done, {len(state.failures)} failed); "
        "pass --resume to serve finished specs without re-simulation "
        "(starting fresh, the old journal is being overwritten)",
        file=sys.stderr,
    )
