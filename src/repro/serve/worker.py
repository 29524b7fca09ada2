"""The serve worker: one fleet child, running one job at a time.

A worker is a long-lived forked process.  It blocks on its task pipe,
runs each job with the in-process backend (one process per simulation
is the right grain — exactly the sweep pool's rule), and reports
``(job_id, status, payload)`` on its result pipe, where status is
``ok`` (payload: the :class:`~repro.sim.results.SimulationResult`),
``preempted`` (payload: the checkpoint directory to resume from) or
``failed`` (payload: the traceback).

Preemption rides the deterministic ``repro.ckpt/2`` snapshot path: the
daemon sets the worker's preempt flag, a :class:`PreemptGuard` hook
polled between scheduler quanta writes one consistent checkpoint and
unwinds with :class:`JobPreempted`, and the worker hands the
checkpoint back.  When the job is later re-assigned, the worker
restores the snapshot and ``resume_run()`` continues it — to a result
byte-identical to an undisturbed run, the PR-5 guarantee the serve
tests re-assert end to end.
"""

from __future__ import annotations

import os
import pickle
import traceback
from typing import Any, Optional

from repro.common.config import SimulationConfig
from repro.common.errors import SimulationError


class JobPreempted(SimulationError):
    """Internal unwind: the running job was checkpointed off its worker."""

    def __init__(self, checkpoint_dir: str) -> None:
        super().__init__(f"preempted into {checkpoint_dir}")
        self.checkpoint_dir = checkpoint_dir


def _disabled_guard() -> "PreemptGuard":
    """Unpickle target: guards inside snapshots come back disabled."""
    return PreemptGuard(None, None)


class PreemptGuard:
    """Scheduler periodic hook that checkpoints on the daemon's signal.

    Runs between quanta (the consistent-snapshot boundary).  The flag
    is a ``multiprocessing.Event``; when set, the guard clears it,
    writes one checkpoint and raises :class:`JobPreempted`.  Guards
    pickle as *disabled* (the flag cannot cross a snapshot, and the
    excision mirrors the repo's "None = disabled observer" rule);
    :func:`attach_preempt_guard` scrubs stale disabled guards when a
    restored simulation gets a live one.
    """

    def __init__(self, simulator: Any, flag: Any) -> None:
        self.simulator = simulator
        self.flag = flag

    def __call__(self, scheduler: Any) -> None:
        if self.flag is None or not self.flag.is_set():
            return
        self.flag.clear()
        path = self.simulator.save_checkpoint()
        raise JobPreempted(path)

    def __reduce__(self):
        return (_disabled_guard, ())


def attach_preempt_guard(simulator: Any, flag: Any) -> PreemptGuard:
    """Install a live guard, dropping any snapshot-restored dead ones."""
    scheduler = simulator.scheduler
    scheduler._periodic_hooks = [
        (hook, period) for hook, period in scheduler._periodic_hooks
        if not isinstance(hook, PreemptGuard)]
    guard = PreemptGuard(simulator, flag)
    scheduler.add_periodic_hook(guard, 1)
    return guard


def run_job(config: SimulationConfig, program: Any, args: tuple,
            resume_dir: Optional[str], preempt_flag: Any = None) -> Any:
    """Run (or resume) one job in this process; may raise JobPreempted.

    ``config.ckpt.dir`` names the job's private checkpoint directory —
    the daemon sets it so preemption has somewhere to snapshot to.
    """
    if resume_dir:
        from repro.ckpt.recovery import load_checkpoint
        simulator, _manifest = load_checkpoint(resume_dir)
        if preempt_flag is not None:
            attach_preempt_guard(simulator, preempt_flag)
        return simulator.resume_run()
    from repro.sim.simulator import Simulator
    run_config = config.copy()
    run_config.distrib.backend = "inproc"
    if run_config.sample.ff_until > 0 and run_config.sample.library:
        # Snapshot-library job (:mod:`repro.sample.library`): the
        # fleet fast-forwards each shared prefix once; every later job
        # with the same prefix forks from the stored checkpoint.
        # Entry creation is atomic, so concurrent fleet children
        # racing to prime the same prefix stay correct.
        from repro.sample.library import SnapshotLibrary
        library = SnapshotLibrary(run_config.sample.library)
        key, primed = library.ensure(run_config, program, args)
        simulator = library.fork(key, run_config)
        if preempt_flag is not None:
            attach_preempt_guard(simulator, preempt_flag)
        result = simulator.resume_run()
        result.sample["library"] = {"key": key, "primed": primed,
                                    "root": library.root}
        return result
    simulator = Simulator(run_config)
    if preempt_flag is not None:
        attach_preempt_guard(simulator, preempt_flag)
    # Program references go to ``run`` unresolved: ``spawn_thread``
    # keeps the ref on the interpreter, which checkpoint snapshots
    # need (a resolved workload main is a closure and cannot pickle).
    return simulator.run(program, args)


def worker_main(task_conn: Any, result_conn: Any,
                preempt_flag: Any) -> None:  # pragma: no cover - child
    """Fleet-child loop: pull jobs until the ``None`` sentinel."""
    while True:
        item = task_conn.recv()
        if item is None:
            return
        job_id, config, program, args, resume_dir = item
        # A preempt signal aimed at the *previous* occupant of this
        # worker (a lost race with its completion) must not leak into
        # this job.
        preempt_flag.clear()
        try:
            result = run_job(config, program, args, resume_dir,
                             preempt_flag)
            try:
                pickle.dumps(result.main_result)
            except Exception:
                result.main_result = None
            result_conn.send((job_id, "ok", result))
        except JobPreempted as preempted:
            result_conn.send((job_id, "preempted",
                              preempted.checkpoint_dir))
        except BaseException:
            result_conn.send((job_id, "failed", traceback.format_exc()))


def worker_banner() -> str:  # pragma: no cover - cosmetic
    return f"repro-serve-worker pid={os.getpid()}"
