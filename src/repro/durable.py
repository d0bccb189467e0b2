"""Durability primitives: append-only JSON-lines logs and atomic file writes.

Every file the reproduction keeps across a crash is one of two shapes,
and this module is the only place either is written:

* **Append-only logs** — the sweep journal (:mod:`repro.exec.journal`),
  the fleet's queue and lease WALs (:mod:`repro.serve.fleet`) and the
  benchmark ledger (:mod:`repro.obs.ledger`).  One JSON object per
  line, written by :func:`append_record`, read back by :func:`replay`
  or, incrementally, :func:`read_tail`.
* **Whole files replaced atomically** — result-store entries
  (:mod:`repro.exec.store`), mid-run checkpoints
  (:mod:`repro.exec.checkpoint`) and the workload cache
  (:mod:`repro.workloads.store`), written by :func:`atomic_write`.

The rules (``docs/robustness.md`` has the long form):

append
    The record is serialised as ``json.dumps(record, sort_keys=True)``
    plus a newline and written under an exclusive ``flock`` on the log
    (where the platform has one), then ``fsync``'d.  Any ``OSError``
    truncates the log back to its pre-append size before re-raising, so
    a failed append never leaves a fragment for the next record to be
    glued onto.
replay
    A line that does not parse as a JSON object, or whose version field
    is newer than the reader's, is counted and skipped — never fatal.
    :func:`read_tail` consumes complete (newline-terminated) lines only,
    so a poller never half-reads a record still being appended.
atomic write
    The bytes go to ``.<name>.<pid>.tmp`` in the target's directory, are
    ``fsync``'d (unless the caller opts out for a rebuildable cache),
    then ``os.replace``'d over the target.  The temp is unlinked on any
    exception, so only a killed process can strand one.
stale temps
    A ``.<name>.<pid>.tmp`` whose pid is not a live process is litter
    from a killed writer (:func:`is_stale_temp`); a live writer's temp
    is left alone because it is about to be renamed.

What a crash may leave: a process killed mid-append can leave an
unterminated fragment at the end of a log, which costs replay that line
(and the next record, which lands on the same line); a process killed
mid-write can leave a stale temp.  Never a torn file under a real name.

Only the standard library is imported: the chaos schedule that decides
whether a write hits an injected full disk lives with the callers, which
pass the decision in as ``disk_full``.
"""

from __future__ import annotations

import errno
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

PathArg = Union[str, Path]

#: Glob matching writer temp files in a directory (see :func:`atomic_write`).
TEMP_GLOB = ".*.tmp"


# -- append-only logs ---------------------------------------------------------

def append_record(path: PathArg, record: Mapping[str, Any], *,
                  disk_full: bool = False) -> int:
    """Durably append ``record`` as one line; returns the line's length.

    ``disk_full`` is the caller's chaos decision: the write then dies
    with ``OSError(ENOSPC)`` halfway through the line, exactly as a real
    full disk would, and the rollback below is what keeps the log whole.
    """
    line = json.dumps(record, sort_keys=True)
    assert "\n" not in line  # one record is always exactly one line
    data = (line + "\n").encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        if fcntl is not None:
            fcntl.flock(fd, fcntl.LOCK_EX)
        start = os.fstat(fd).st_size
        try:
            if disk_full:
                os.write(fd, data[: max(1, len(line) // 2)])
                raise OSError(errno.ENOSPC,
                              f"injected disk-full (chaos) appending to "
                              f"{path.name}")
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        except OSError:
            _truncate(fd, start)
            raise
    finally:
        os.close(fd)  # also releases the flock
    return len(line)


def _truncate(fd: int, size: int) -> None:
    """Best-effort roll a failed append back to ``size`` bytes."""
    try:
        os.ftruncate(fd, size)
        os.fsync(fd)
    # simlint: allow[SIM601] rollback of a failed write is best-effort; the caller re-raises the original OSError
    except OSError:
        pass


@dataclass
class Replay:
    """What :func:`replay` read back from one log."""

    #: Every parseable record, in file order.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: ``"<path>:<line>: skipped (<why>)"`` per line that was not used.
    problems: List[str] = field(default_factory=list)
    #: Lines seen, blank and corrupt ones included.
    lines: int = 0
    #: Whether the file could be read at all.
    found: bool = False

    @property
    def corrupt(self) -> int:
        return len(self.problems)


def _parse(line: str, version: Optional[int]) -> Dict[str, Any]:
    """One log line as a record; ``ValueError`` says why it is unusable."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    if version is not None and record.get("v", 0) > version:
        raise ValueError(f"record version {record.get('v')} is newer than "
                         f"{version}")
    return record


def replay(path: PathArg, version: Optional[int] = None) -> Replay:
    """Every usable record in the log at ``path``.

    ``version`` is the reader's record version: records whose ``v`` is
    newer are skipped rather than mis-parsed (None accepts any).  A
    missing or unreadable file replays as empty with ``found`` False.
    """
    result = Replay()
    try:
        text = Path(path).read_text("utf-8")
    except OSError:
        return result
    result.found = True
    for lineno, line in enumerate(text.splitlines(), 1):
        result.lines = lineno
        if not line.strip():
            continue
        try:
            result.records.append(_parse(line, version))
        except ValueError as exc:
            result.problems.append(f"{path}:{lineno}: skipped ({exc})")
    return result


def read_tail(
    path: PathArg, offset: int, version: Optional[int] = None,
) -> Tuple[List[Dict[str, Any]], int]:
    """Records appended past byte ``offset``; returns the new offset.

    Only complete lines are consumed: a final line without its newline
    is a write still in flight, so the returned offset stops before it
    and the next call re-reads it whole.  A missing file reads as no
    progress (offset unchanged).
    """
    try:
        with open(path, "rb") as handle:
            handle.seek(offset)
            chunk = handle.read()
    except OSError:
        return [], offset
    end = chunk.rfind(b"\n")
    if end < 0:
        return [], offset
    complete = chunk[: end + 1]
    records: List[Dict[str, Any]] = []
    for line in complete.decode("utf-8", errors="replace").splitlines():
        if not line.strip():
            continue
        try:
            records.append(_parse(line, version))
        # simlint: allow[SIM601] a live tail skips corrupt lines; replay counts them
        except ValueError:
            continue
    return records, offset + len(complete)


# -- atomic whole-file writes -------------------------------------------------

def atomic_write(path: PathArg, data: bytes, *, sync: bool = True,
                 disk_full: bool = False) -> None:
    """Replace ``path`` with ``data`` so readers see old or new, never torn.

    ``sync=False`` skips the ``fsync`` — for caches that can be rebuilt
    and whose readers treat a torn file as a miss.  ``disk_full`` is the
    caller's chaos decision: half the bytes land in the temp, then the
    write dies with ``OSError(ENOSPC)``.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as handle:
            if disk_full:
                handle.write(data[: len(data) // 2])
                handle.flush()
                raise OSError(errno.ENOSPC, f"injected disk-full (chaos) "
                                            f"writing {path.name}")
            handle.write(data)
            if sync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            tmp.unlink()
        # simlint: allow[SIM601] best-effort cleanup while re-raising the real error
        except OSError:
            pass
        raise


# -- stale temps --------------------------------------------------------------

def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe).

    A pid no process can have — zero, negative, or too large for the
    platform's ``pid_t`` — is dead.  A process we may not signal exists.
    """
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, OverflowError):
        return False
    except OSError:
        return True  # exists, but not ours to signal
    return True


def is_stale_temp(path: Path) -> bool:
    """Whether a ``.<name>.<pid>.tmp`` writer temp has no live owner."""
    pid_part = path.name.rsplit(".", 2)[-2]
    return not (pid_part.isdecimal() and _pid_alive(int(pid_part)))
