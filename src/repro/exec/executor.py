"""The Executor: batches of RunSpecs in, RunResults out, in order.

Resolution order per unique spec hash:

1. **memo** — results already resolved by this executor (process memory);
2. **store** — the on-disk content-addressed store, when configured;
3. **simulate** — in-process when ``jobs == 1`` (deterministic
   single-process debugging), else fanned out over a
   :class:`concurrent.futures.ProcessPoolExecutor`.

Duplicate specs within a batch are simulated once and every caller
position gets the same result object.  Freshly simulated results are
written back to the store, so the next process — or the next exhibit in
the same ``python -m repro all`` — never pays for the same cell twice.

Fault tolerance
---------------
Long fan-outs must survive partial failure: one worker exception, hang
or pool death must not destroy a multi-hour sweep.  Execution is
therefore governed by a :class:`~repro.exec.policy.RetryPolicy`:

* failing attempts are retried up to ``retries`` times with a
  deterministic exponential backoff (seeded jitter, no ``random``);
* a watchdog enforces the per-attempt ``timeout`` on pool runs — hung
  workers are killed, their specs requeued and charged an attempt;
* a broken pool (a worker died mid-task) is rebuilt and its in-flight
  specs resubmitted without charge; after ``max_pool_rebuilds``
  consecutive deaths the executor degrades to in-process execution;
* a spec that exhausts every attempt becomes a
  :class:`~repro.exec.policy.FailedRun` hole in the batch (``strict``
  mode raises :class:`~repro.exec.policy.SpecExhausted` instead), so
  ``run``/``run_sweep`` return complete grids with annotated holes.

Every recovery path is exercisable on a deterministic schedule via
``REPRO_FAULTS`` (see :mod:`repro.exec.faults`).

Durability
----------
Workers failing is one half of the problem; the *driver* dying (OOM
kill, SIGTERM, Ctrl-C, host reboot) is the other.  When ``journal_dir``
is configured, every multi-spec batch is backed by a crash-safe
write-ahead journal (:mod:`repro.exec.journal`): per-spec lifecycle
transitions are fsync'd before and after each unit of work, so a killed
driver leaves an exact record of what finished.  ``resume=True``
replays that record — finished specs are served from the journal +
store, persisted :class:`FailedRun` holes are honoured instead of
silently re-running exhausted specs (``retry_failed=True`` opts back
in) — and a ``shutdown`` manager turns SIGINT/SIGTERM into a graceful
stop: dispatch halts, in-flight attempts drain within a deadline, the
journal is flushed, and :class:`~repro.exec.shutdown.SweepInterrupted`
carries the conventional exit code up to the CLI.
"""

from __future__ import annotations

import sys
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.config import MachineConfig, baseline_config
from repro.core.results import ResultSet
from repro.core.simulation import DEFAULT_INSTRUCTIONS, RunResult
from repro.exec.checkpoint import Checkpointer, discard_checkpoints
from repro.exec.faults import (
    KILL_ORCHESTRATOR_EXIT,
    FaultPlan,
    InjectedHang,
    active_plan,
    inject_attempt_faults,
    maybe_corrupt_store_entry,
    should_kill_orchestrator,
)
from repro.exec.journal import (
    JournalState,
    SweepJournal,
    hint_incomplete,
    journal_path,
    read_state,
    sweep_identity,
)
from repro.exec.policy import (
    FailedRun,
    RetryPolicy,
    SpecExhausted,
    SpecTimeout,
)
from repro.exec.runspec import RunSpec
from repro.exec.shutdown import SHUTDOWN, ShutdownManager, SweepInterrupted
from repro.exec.store import ResultStore
from repro.exec.telemetry import (
    SOURCE_FAILED,
    SOURCE_JOURNAL,
    SOURCE_MEMO,
    SOURCE_SIMULATED,
    SOURCE_STORE,
    RunRecord,
    Telemetry,
)
from repro.mechanisms.registry import ALL_MECHANISMS, BASELINE
from repro.obs.tracing import TRACER
from repro.workloads.registry import ALL_BENCHMARKS

#: progress(completed_simulations, total_simulations, spec_just_finished)
ProgressFn = Callable[[int, int, RunSpec], None]

#: One resolved batch entry: a result, or the hole a failed spec left.
Resolved = Union[RunResult, FailedRun]

#: What the worker entry point returns per attempt; the final element is
#: ``(checkpoints cut, resumed-from-checkpoint)`` for the telemetry.
_WorkerReturn = Tuple[str, RunResult, float, Tuple[int, int]]

#: (spec, attempt number) waiting to run.
_QueueItem = Tuple[RunSpec, int]


def _execute_timed(
    spec: RunSpec,
    attempt: int = 1,
    plan: Optional[FaultPlan] = None,
    in_process: bool = True,
    checkpoint_every: int = 0,
    ckpt_root: Optional[str] = None,
) -> _WorkerReturn:
    """Worker entry point: run one spec attempt, report its wall time.

    Fault injection (when ``plan`` is armed) happens *before* the traced
    region so a crashing attempt never leaves an unbalanced span.

    When checkpointing is on, later attempts of the same spec resume
    from the newest sound mid-run snapshot under ``ckpt_root``.  The
    ``kill-midrun`` chaos kind always takes the survivable
    :class:`~repro.exec.faults.InjectedCrash` flavour here: a pool
    worker's ``os._exit`` would break the whole pool, and the executor
    requeues broken-pool casualties *without* charging an attempt — the
    one-shot (spec, attempt 1) schedule would fire forever.  The raise
    is charged, so the retry carries attempt 2, skips the schedule and
    converges.  Real ``os._exit`` kills are exercised by the fleet
    workers (:mod:`repro.serve.worker`), whose lease counts do advance.
    """
    inject_attempt_faults(plan, spec.content_hash, attempt, in_process)
    ckpt = None
    if checkpoint_every and ckpt_root is not None:
        ckpt = Checkpointer(
            Path(ckpt_root), spec.content_hash, checkpoint_every,
            attempt=attempt, plan=plan, kill_exit=None,
        )
    tracing = TRACER.enabled
    if tracing:
        TRACER.begin("exec.simulate", cat="exec",
                     benchmark=spec.benchmark, mechanism=spec.mechanism)
    start = time.perf_counter()
    result = spec.execute(checkpoint=ckpt)
    seconds = time.perf_counter() - start
    if tracing:
        TRACER.end(seconds=round(seconds, 6))
    ckpt_counts = (ckpt.cuts, ckpt.resumed) if ckpt is not None else (0, 0)
    return spec.content_hash, result, seconds, ckpt_counts


def _round_robin(queue: Deque[_QueueItem]) -> Deque[_QueueItem]:
    """``queue`` reordered round-robin over workloads, stably.

    A spec's rank is how many specs before it build the same workload
    (:attr:`RunSpec.workload_key`); sorting by rank puts every workload's
    first spec ahead of any second one.  Exhibits list a benchmark's cells
    together, so in spec order two idle workers would both miss the
    workload store and build the same workload; in rank order no dispatch
    wave shares a workload until each has been dispatched once, and later
    cells find it in the worker's memo or the on-disk store.
    """
    seen: Dict[Tuple[str, int], int] = {}
    ranked: List[Tuple[int, _QueueItem]] = []
    for item in queue:
        key = item[0].workload_key
        rank = seen.get(key, 0)
        seen[key] = rank + 1
        ranked.append((rank, item))
    ranked.sort(key=lambda pair: pair[0])
    return deque(item for _rank, item in ranked)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now*: kill workers, cancel queued work, no wait.

    ``shutdown(wait=True)`` — what the ``with`` statement does — blocks
    until every in-flight future completes, which for a hung worker is
    forever.  Worker handles only exist on the private ``_processes``
    map, so the access is guarded against interpreter variation.
    """
    processes = getattr(pool, "_processes", None)
    if processes:
        for proc in list(processes.values()):
            try:
                proc.terminate()
            # simlint: allow[SIM601] the worker already died; nothing to kill
            except (OSError, ValueError):
                pass
    pool.shutdown(wait=False, cancel_futures=True)


class Executor:
    """Run batches of :class:`RunSpec`, deduplicated, cached and retried.

    ``jobs=1`` executes in-process (no pool, bit-for-bit reproducible
    stepping under a debugger); ``jobs>1`` uses a process pool of that
    many workers.  ``jobs=None`` defaults to ``os.cpu_count()``.

    ``policy`` defaults to the fail-fast library behaviour (no retries,
    no timeout, strict); the CLI's ``--retries/--timeout/--strict``
    flags build a lenient one.  ``faults`` defaults to the process-wide
    ``REPRO_FAULTS`` plan and exists as a parameter so chaos tests can
    inject deterministic failure schedules without touching the
    environment.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        store: Optional[ResultStore] = None,
        telemetry: Optional[Telemetry] = None,
        progress: Optional[ProgressFn] = None,
        policy: Optional[RetryPolicy] = None,
        faults: Optional[FaultPlan] = None,
        journal_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        retry_failed: bool = False,
        shutdown: Optional[ShutdownManager] = None,
        checkpoint_every: int = 0,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.store = store
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.progress = progress
        self.policy = policy if policy is not None else RetryPolicy()
        self.faults = faults if faults is not None else active_plan()
        #: Where multi-spec batches journal their progress; None disables
        #: the write-ahead journal (the library default — importing must
        #: not write to disk).  The CLI wires it to ``store.journal_dir``.
        self.journal_dir = (Path(journal_dir) if journal_dir is not None
                            else None)
        #: Serve finished/failed specs from an existing journal instead
        #: of re-dispatching them (``--resume``).
        self.resume = resume
        #: Re-run specs the journal recorded as exhausted (``--retry-failed``).
        self.retry_failed = retry_failed
        #: Consulted between waves; the never-installed process singleton
        #: is inert, so library use pays nothing.
        self.shutdown = shutdown if shutdown is not None else SHUTDOWN
        #: Cut a durable mid-run snapshot every N trace records (0 = off,
        #: the default: the disabled path adds nothing to the record
        #: loop).  Checkpoints live under the store's ``ckpt/`` tree, so
        #: checkpointing requires a configured store.
        self.checkpoint_every = max(0, int(checkpoint_every))
        self._ckpt_root = (store.ckpt_root
                           if store is not None and self.checkpoint_every
                           else None)
        self._memo: Dict[str, Resolved] = {}
        self._sweep_memo: Dict[Tuple[str, ...], ResultSet] = {}
        #: monotonic() at each spec's first attempt (for FailedRun.elapsed).
        self._first_attempt_at: Dict[str, float] = {}
        self._store_corrupt_base = store.corrupt_reads if store else 0
        #: The current batch's write-ahead journal and its replayed state.
        self._journal: Optional[SweepJournal] = None
        self._journal_state: Optional[JournalState] = None
        #: Live pool, killed by the shutdown manager's second-signal path.
        self._active_pool: Optional[ProcessPoolExecutor] = None

    # -- batch execution ------------------------------------------------------

    def run(self, specs: Sequence[RunSpec]) -> List[Resolved]:
        """Resolve every spec; results align with ``specs`` by position.

        Under the default strict policy a failing spec raises (after any
        configured retries).  Under a lenient policy (``strict=False``)
        an exhausted spec resolves to a :class:`FailedRun` in its batch
        position, and the rest of the batch completes normally.
        """
        tracing = TRACER.enabled
        if tracing:
            TRACER.begin("exec.batch", cat="exec", specs=len(specs))
        start = time.perf_counter()
        order: List[str] = []
        unique: Dict[str, RunSpec] = {}
        for spec in specs:
            key = spec.content_hash
            order.append(key)
            if key not in unique:
                unique[key] = spec

        self._journal, self._journal_state = self._open_journal(order, unique)
        try:
            to_simulate: List[RunSpec] = []
            for key, spec in unique.items():
                if key in self._memo:
                    self._record(spec, SOURCE_MEMO)
                    self._journal_resolved(spec, SOURCE_MEMO)
                    continue
                if self._serve_from_journal(spec):
                    continue
                stored = self.store.get(spec) if self.store is not None else None
                if stored is not None:
                    self._memo[key] = stored
                    self._record(spec, SOURCE_STORE)
                    self._journal_resolved(spec, SOURCE_STORE)
                    continue
                to_simulate.append(spec)
            if self.store is not None:
                self.telemetry.store_corrupt = (
                    self.store.corrupt_reads - self._store_corrupt_base
                )

            if to_simulate:
                self._simulate(to_simulate)

            # Reaching here means every spec resolved (strict exhaustion
            # and graceful shutdown raise past this): the journal is done.
            if self._journal is not None:
                self._journal.complete(len(unique))
        finally:
            self._journal = None
            self._journal_state = None

        self.telemetry.record_batch(
            len(specs), len(unique), time.perf_counter() - start
        )
        if tracing:
            TRACER.end(unique=len(unique), simulated=len(to_simulate))
        return [self._memo[key] for key in order]

    # -- durability (journal, resume, shutdown, driver kill) ------------------

    def _open_journal(
        self, order: List[str], unique: Dict[str, RunSpec]
    ) -> Tuple[Optional[SweepJournal], Optional[JournalState]]:
        """The write-ahead journal for this batch, plus any resume state.

        Journaling covers every multi-spec batch when a journal
        directory is configured.  Resuming reuses the existing file
        (its replayed state serves finished specs); a fresh run
        overwrites it, hinting on stderr first when the old journal
        was left incomplete by a killed run.
        """
        if self.journal_dir is None or len(order) < 2:
            return None, None
        sweep_id = sweep_identity(order, self.policy)
        path = journal_path(self.journal_dir, sweep_id)
        state = read_state(path)
        if self.resume and state is not None:
            return (
                SweepJournal(path, sweep_id, plan=self.faults,
                             seq=state.lines),
                state,
            )
        if state is not None and not state.complete:
            hint_incomplete(state)
        path.unlink(missing_ok=True)
        journal = SweepJournal(path, sweep_id, plan=self.faults)
        journal.start(len(unique), len(order), self.policy)
        for key, spec in unique.items():
            journal.planned(key, spec.benchmark, spec.mechanism)
        return journal, None

    def _serve_from_journal(self, spec: RunSpec) -> bool:
        """Resolve ``spec`` from the replayed journal, when it can be.

        A ``done`` record means the result is in the store under the
        spec's hash — re-read it rather than re-dispatching.  A
        persisted failure is served as its :class:`FailedRun` hole so a
        resumed lenient sweep never silently re-runs an exhausted spec
        (``retry_failed`` opts back in; strict mode always re-runs, an
        honoured failure would have to raise anyway).
        """
        state = self._journal_state
        if state is None:
            return False
        key = spec.content_hash
        if key in state.done and self.store is not None:
            stored = self.store.get(spec)
            if stored is not None:
                self._memo[key] = stored
                self._record(spec, SOURCE_JOURNAL)
                return True
            # Journaled done but the entry rotted away: fall through and
            # re-simulate (the store's corrupt-read warning already fired).
        failure = state.failures.get(key)
        if (failure is not None and not self.policy.strict
                and not self.retry_failed):
            self._memo[key] = failure
            self._record(spec, SOURCE_JOURNAL)
            return True
        return False

    def _journal_resolved(self, spec: RunSpec, source: str) -> None:
        """Journal a spec that resolved without dispatching (memo/store)."""
        if self._journal is None:
            return
        resolved = self._memo[spec.content_hash]
        if isinstance(resolved, FailedRun):
            self._journal.failed(resolved)
        else:
            self._journal.done(spec.content_hash, spec.benchmark,
                               spec.mechanism, source)

    def _shutdown_signal(self) -> Optional[int]:
        """The pending shutdown signal, or None to keep going."""
        if self.shutdown is None:
            return None
        return self.shutdown.requested

    def _interrupt(self, signum: int) -> None:
        """Journal the graceful stop and raise it out of the batch."""
        if self._journal is not None:
            self._journal.interrupted(signum)
        raise SweepInterrupted(signum)

    def _emergency_kill_pool(self) -> None:
        """Second-signal path: the shutdown manager kills the live pool."""
        pool = self._active_pool
        if pool is not None:
            _terminate_pool(pool)

    def _maybe_kill_orchestrator(
        self, key: str, pool: Optional[ProcessPoolExecutor] = None
    ) -> None:
        """Chaos mode: die like an OOM-killed driver, between waves.

        Runs driver-side only, right after ``key`` was absorbed —
        stored and journaled ``done`` — so the sweep provably advances
        by at least one spec per resumed run and the resume loop
        converges.  The pool is torn down first so no workers outlive
        the "kill".
        """
        if not should_kill_orchestrator(self.faults, key):
            return
        print(
            "faults: injected orchestrator kill (journal flushed; "
            "resume with --resume)",
            file=sys.stderr,
        )
        if pool is not None:
            _terminate_pool(pool)
        os._exit(KILL_ORCHESTRATOR_EXIT)

    def _drain_and_stop(
        self,
        pool: ProcessPoolExecutor,
        pending: Dict["Future[_WorkerReturn]",
                      Tuple[RunSpec, int, Optional[float]]],
        signum: int,
    ) -> None:
        """Graceful shutdown of a pool batch: drain, flush, raise.

        Dispatching has stopped; in-flight attempts get the shutdown
        manager's grace deadline to finish, whatever completes is
        absorbed (stored and journaled) so the resume serves it, and
        the rest are terminated with the pool.  Always raises
        :class:`SweepInterrupted`.
        """
        grace = self.shutdown.grace if self.shutdown is not None else 0.0
        if pending and grace > 0:
            finished, _ = wait(set(pending), timeout=grace)
            for future in finished:
                spec, _attempt, _deadline = pending.pop(future)
                try:
                    key, result, seconds, ckpt_counts = future.result()
                # simlint: allow[SIM601] shutting down: the resumed run re-dispatches and accounts this attempt
                except BaseException:
                    continue
                self._count_checkpoints(ckpt_counts)
                self._absorb(spec, key, result, seconds, 0, 0)
        _terminate_pool(pool)
        self._interrupt(signum)

    # -- simulation fan-out ----------------------------------------------------

    def _simulate(self, specs: List[RunSpec]) -> None:
        total = len(specs)
        now = time.monotonic()
        for spec in specs:
            self._first_attempt_at.setdefault(spec.content_hash, now)
        queue: Deque[_QueueItem] = deque((spec, 1) for spec in specs)
        if self.jobs == 1 or total == 1:
            self._simulate_serial(queue, total, 0)
        else:
            self._simulate_pool(queue, total)

    # -- in-process execution -------------------------------------------------

    def _simulate_serial(
        self, queue: Deque[_QueueItem], total: int, done: int
    ) -> int:
        """Drain ``queue`` in-process; returns the completed count.

        The per-attempt timeout cannot preempt in-process execution, so
        only injected hangs surface as timeouts here; everything else of
        the policy (retries, backoff, strict/lenient) applies as in the
        pool path.
        """
        while queue:
            signum = self._shutdown_signal()
            if signum is not None:
                self._interrupt(signum)
            spec, attempt = queue.popleft()
            if self._journal is not None:
                self._journal.dispatched(spec.content_hash, attempt)
            try:
                key, result, seconds, ckpt_counts = _execute_timed(
                    spec, attempt, self.faults, in_process=True,
                    checkpoint_every=self.checkpoint_every,
                    ckpt_root=self._ckpt_str(),
                )
            except (KeyboardInterrupt, SystemExit):
                raise
            # simlint: allow[SIM601] retried or converted to a FailedRun by _attempt_failed
            except BaseException as exc:
                retry = self._attempt_failed(spec, attempt, exc)
                if retry is None:
                    done += 1
                    self._note_progress(done, total, spec)
                else:
                    if retry > 0:
                        time.sleep(retry)
                    queue.append((spec, attempt + 1))
                continue
            done += 1
            self._count_checkpoints(ckpt_counts)
            self._absorb(spec, key, result, seconds, done, total)
            self._maybe_kill_orchestrator(key)
        return done

    # -- pool execution -------------------------------------------------------

    def _simulate_pool(self, queue: Deque[_QueueItem], total: int) -> None:
        """Drain ``queue`` over a process pool with watchdog and recovery.

        At most ``workers`` submissions are in flight at a time, so a
        submitted attempt starts (nearly) immediately and its deadline
        is measured from submission.  Retries waiting out their backoff
        sit in ``delayed`` and are promoted when due.  Any pool death —
        spontaneous (``BrokenProcessPool``) or deliberate (the watchdog
        killing hung workers) — requeues in-flight specs and rebuilds
        the pool; repeated consecutive deaths degrade to in-process
        execution so the batch always finishes.  Specs are dispatched
        round-robin over their workloads (:func:`_round_robin`).
        """
        workers = min(self.jobs, total)
        queue = _round_robin(queue)
        pool = ProcessPoolExecutor(max_workers=workers)
        pending: Dict["Future[_WorkerReturn]",
                      Tuple[RunSpec, int, Optional[float]]] = {}
        delayed: List[Tuple[float, RunSpec, int]] = []
        done = 0
        rebuilds = 0  # consecutive pool deaths without a completed attempt
        self._active_pool = pool
        if self.shutdown is not None:
            self.shutdown.add_emergency(self._emergency_kill_pool)
        try:
            while queue or pending or delayed:
                signum = self._shutdown_signal()
                if signum is not None:
                    self._drain_and_stop(pool, pending, signum)
                now = time.monotonic()
                if delayed:
                    due = [item for item in delayed if item[0] <= now]
                    if due:
                        delayed = [i for i in delayed if i[0] > now]
                        for _, spec, attempt in due:
                            queue.append((spec, attempt))
                broken = False
                while queue and len(pending) < workers:
                    spec, attempt = queue.popleft()
                    deadline = (now + self.policy.timeout
                                if self.policy.timeout is not None else None)
                    if self._journal is not None:
                        self._journal.dispatched(spec.content_hash, attempt)
                    try:
                        future = pool.submit(
                            _execute_timed, spec, attempt, self.faults, False,
                            self.checkpoint_every, self._ckpt_str(),
                        )
                    except BrokenProcessPool:
                        queue.appendleft((spec, attempt))
                        broken = True
                        break
                    pending[future] = (spec, attempt, deadline)
                if pending and not broken:
                    finished, _ = wait(
                        set(pending), timeout=self._wait_timeout(pending, delayed),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in finished:
                        spec, attempt, _deadline = pending.pop(future)
                        try:
                            key, result, seconds, ckpt_counts = future.result()
                        except BrokenProcessPool:
                            # In flight when the pool died: requeue, no charge.
                            queue.appendleft((spec, attempt))
                            broken = True
                            continue
                        except (KeyboardInterrupt, SystemExit):
                            raise
                        # simlint: allow[SIM601] retried or converted to a FailedRun by _attempt_failed
                        except BaseException as exc:
                            rebuilds = 0
                            done = self._resolve_failure(
                                spec, attempt, exc, delayed, done, total
                            )
                            continue
                        done += 1
                        rebuilds = 0
                        self._count_checkpoints(ckpt_counts)
                        self._absorb(spec, key, result, seconds, done, total)
                        self._maybe_kill_orchestrator(key, pool)
                    # Watchdog: charge and requeue attempts past deadline,
                    # then kill the pool — a hung worker cannot be cancelled.
                    now = time.monotonic()
                    expired = [f for f, (_s, _a, dl) in pending.items()
                               if dl is not None and dl <= now]
                    for future in expired:
                        spec, attempt, _deadline = pending.pop(future)
                        timeout = self.policy.timeout or 0.0
                        exc: BaseException = SpecTimeout(
                            f"{spec.benchmark}/{spec.mechanism} attempt "
                            f"{attempt} exceeded {timeout:g}s"
                        )
                        done = self._resolve_failure(
                            spec, attempt, exc, delayed, done, total,
                            timed_out=True,
                        )
                    if expired:
                        broken = True
                elif not pending and not queue and delayed:
                    # Only backoff sleepers remain; wait for the earliest.
                    earliest = min(item[0] for item in delayed)
                    pause = earliest - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                if broken:
                    for spec, attempt, _deadline in pending.values():
                        queue.appendleft((spec, attempt))
                    pending.clear()
                    _terminate_pool(pool)
                    self.telemetry.pool_rebuilds += 1
                    rebuilds += 1
                    if rebuilds > self.policy.max_pool_rebuilds:
                        print(
                            f"executor: pool died {rebuilds} times in a row; "
                            f"finishing {len(queue) + len(delayed)} spec(s) "
                            "in-process",
                            file=sys.stderr,
                        )
                        for _ready_at, spec, attempt in delayed:
                            queue.append((spec, attempt))
                        delayed.clear()
                        self._simulate_serial(queue, total, done)
                        return
                    pool = ProcessPoolExecutor(max_workers=workers)
                    self._active_pool = pool
        except BaseException:
            # Fatal exit (strict-mode exhaustion, ^C, a bug): cancel
            # queued work and kill workers rather than stranding a pool
            # whose implicit shutdown would block on in-flight futures.
            _terminate_pool(pool)
            raise
        finally:
            self._active_pool = None
            if self.shutdown is not None:
                self.shutdown.remove_emergency(self._emergency_kill_pool)
        pool.shutdown(wait=True)

    def _wait_timeout(
        self,
        pending: Dict["Future[_WorkerReturn]",
                      Tuple[RunSpec, int, Optional[float]]],
        delayed: List[Tuple[float, RunSpec, int]],
    ) -> Optional[float]:
        """How long ``wait`` may block before the watchdog must look.

        None (block until a future completes) when there are no
        deadlines to enforce and no backoff retries to promote.
        """
        times = [deadline for (_s, _a, deadline) in pending.values()
                 if deadline is not None]
        times.extend(ready_at for ready_at, _s, _a in delayed)
        if not times:
            return None
        return max(0.01, min(times) - time.monotonic())

    # -- attempt accounting ---------------------------------------------------

    def _resolve_failure(
        self,
        spec: RunSpec,
        attempt: int,
        exc: BaseException,
        delayed: List[Tuple[float, RunSpec, int]],
        done: int,
        total: int,
        timed_out: bool = False,
    ) -> int:
        """Pool-side bookkeeping for one failed attempt; returns ``done``."""
        retry = self._attempt_failed(spec, attempt, exc, timed_out=timed_out)
        if retry is None:
            done += 1
            self._note_progress(done, total, spec)
        else:
            delayed.append((time.monotonic() + retry, spec, attempt + 1))
        return done

    def _attempt_failed(
        self,
        spec: RunSpec,
        attempt: int,
        exc: BaseException,
        timed_out: bool = False,
    ) -> Optional[float]:
        """Account for one failed attempt.

        Returns the backoff delay in seconds when the spec should be
        retried.  Returns None when the spec is exhausted — in strict
        mode by raising :class:`SpecExhausted`, otherwise by recording a
        :class:`FailedRun` hole in the memo.
        """
        key = spec.content_hash
        timeout_like = timed_out or isinstance(exc, InjectedHang)
        if timeout_like:
            self.telemetry.timeouts += 1
        if attempt < self.policy.max_attempts:
            self.telemetry.retries += 1
            return self.policy.backoff_delay(key, attempt)
        started = self._first_attempt_at.pop(key, None)
        elapsed = time.monotonic() - started if started is not None else 0.0
        failure = FailedRun(
            spec_hash=key,
            benchmark=spec.benchmark,
            mechanism=spec.mechanism,
            attempts=attempt,
            error=repr(exc),
            elapsed=round(elapsed, 6),
            kind="timeout" if timeout_like else "error",
        )
        self.telemetry.failures += 1
        # Journal the exhaustion first: even a strict abort leaves a
        # record, and a resumed lenient sweep can honour the hole.
        if self._journal is not None:
            self._journal.failed(failure)
        if self.policy.strict:
            raise SpecExhausted(failure) from exc
        print(f"executor: giving up: {failure.summary()}", file=sys.stderr)
        self._memo[key] = failure
        self._record(spec, SOURCE_FAILED, failure.elapsed)
        return None

    def _note_progress(self, done: int, total: int, spec: RunSpec) -> None:
        if self.progress is not None:
            self.progress(done, total, spec)

    def _ckpt_str(self) -> Optional[str]:
        """The checkpoint root as a plain string (picklable submit arg)."""
        return str(self._ckpt_root) if self._ckpt_root is not None else None

    def _count_checkpoints(self, counts: Tuple[int, int]) -> None:
        self.telemetry.checkpoints += counts[0]
        self.telemetry.resumed_from_ckpt += counts[1]

    def _absorb(
        self,
        spec: RunSpec,
        key: str,
        result: RunResult,
        seconds: float,
        done: int,
        total: int,
    ) -> None:
        self._memo[key] = result
        self._first_attempt_at.pop(key, None)
        if self.store is not None:
            path = self.store.put(spec, result)
            # Chaos mode: a "torn write" lands now, is discovered (and
            # counted) by whoever reads the entry next.
            maybe_corrupt_store_entry(self.faults, path, key, 1)
            if self._ckpt_root is not None:
                # The result is durable; the spec's mid-run snapshots are
                # now pure disk waste.
                discard_checkpoints(self._ckpt_root / key)
        self._record(spec, SOURCE_SIMULATED, seconds)
        # Journal *after* the store write: a ``done`` record promises the
        # result is re-readable, so the promise must land last.
        if self._journal is not None:
            self._journal.done(key, spec.benchmark, spec.mechanism,
                               SOURCE_SIMULATED, seconds)
        self._note_progress(done, total, spec)

    def _record(self, spec: RunSpec, source: str, seconds: float = 0.0) -> None:
        if TRACER.enabled:
            TRACER.instant("exec.resolve", cat="exec",
                           benchmark=spec.benchmark,
                           mechanism=spec.mechanism, source=source)
        self.telemetry.record(RunRecord(
            spec_hash=spec.content_hash,
            benchmark=spec.benchmark,
            mechanism=spec.mechanism,
            source=source,
            seconds=seconds,
        ))

    # -- grids ----------------------------------------------------------------

    def run_sweep(
        self,
        config: Optional[MachineConfig] = None,
        benchmarks: Sequence[str] = ALL_BENCHMARKS,
        mechanisms: Sequence[str] = ALL_MECHANISMS,
        n_instructions: int = DEFAULT_INSTRUCTIONS,
        mechanism_kwargs: Optional[Dict[str, Dict[str, object]]] = None,
    ) -> ResultSet:
        """The mechanism x benchmark grid as a :class:`ResultSet`.

        The baseline is always included (speedup queries need it).  The
        assembled ResultSet is memoised by the tuple of spec hashes, so
        exhibits sharing a grid share the object too.  Under a lenient
        policy, exhausted specs land in the grid as annotated
        :class:`FailedRun` holes (see :meth:`ResultSet.add_failure`)
        rather than aborting the sweep.
        """
        mechanisms = list(mechanisms)
        if BASELINE not in mechanisms:
            mechanisms.insert(0, BASELINE)
        config = config or baseline_config()
        variants = mechanism_kwargs or {}
        specs = [
            RunSpec(
                benchmark=benchmark,
                mechanism=mechanism,
                config=config,
                n_instructions=n_instructions,
                mechanism_kwargs=variants.get(mechanism) or (),
            )
            for mechanism in mechanisms
            for benchmark in benchmarks
        ]
        key = tuple(spec.content_hash for spec in specs)
        if key in self._sweep_memo:
            for spec in specs:
                self._record(spec, SOURCE_MEMO)
            self.telemetry.record_batch(len(specs), len(specs), 0.0)
            return self._sweep_memo[key]
        results = self.run(specs)
        grid = ResultSet()
        for result in results:
            if isinstance(result, FailedRun):
                grid.add_failure(result)
            else:
                grid.add(result)
        self._sweep_memo[key] = grid
        return grid
