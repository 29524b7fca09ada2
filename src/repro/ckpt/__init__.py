"""repro.ckpt: deterministic checkpoint/restore and fault tolerance.

Long simulations (the whole reason Graphite distributes them) need to
survive process crashes and host reboots.  This package provides:

- :mod:`repro.ckpt.snapshot` — the surgical pickler that turns a live
  simulator (or one worker's shard) into a self-contained blob, with
  host-side observers excised and thread generators replaced by their
  replay logs.
- :mod:`repro.ckpt.store` — the on-disk format ``repro.ckpt/2``: one
  directory per checkpoint with a JSON manifest, sha256 integrity
  checksums and an atomically updated ``LATEST`` pointer.
- :mod:`repro.ckpt.recovery` — loading a checkpoint back into a
  runnable simulator, plus the crash-recovery driver that restarts
  dead mp workers with exponential backoff.

The acid test, asserted in CI: for a fixed seed and config, a run
that checkpoints, dies and resumes produces a byte-identical
:class:`~repro.sim.results.SimulationResult` to an uninterrupted run,
on both the inproc and mp backends.
"""

from repro.ckpt.recovery import (  # noqa: F401
    load_checkpoint,
    resume_with_recovery,
    run_with_recovery,
)
from repro.ckpt.snapshot import snapshot_bytes  # noqa: F401
from repro.ckpt.store import CheckpointStore  # noqa: F401
