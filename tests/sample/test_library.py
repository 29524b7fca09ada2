"""Snapshot library: keying, entries, prefix sharing, determinism."""

import json
import os
import subprocess
import sys

import pytest

from repro.common.config import SimulationConfig
from repro.common.errors import SampleError
from repro.sample.library import (SnapshotLibrary, roi_metrics,
                                  run_with_library, workload_descriptor)
from repro.sim.experiment import sweep
from tests.conftest import tiny_config


def long_program(ctx):
    base = yield from ctx.malloc(512)
    for i in range(400):
        yield from ctx.store_u64(base + (i % 16) * 8, i)
        yield from ctx.compute(20)


def library_config(tmp_path=None, ff_until=1500, **overrides):
    config = tiny_config(2)
    config.sample.ff_until = ff_until
    if tmp_path is not None:
        config.sample.library = str(tmp_path / "lib")
    for dotted, value in overrides.items():
        section, _, field = dotted.partition("__")
        setattr(getattr(config, section), field, value)
    config.validate()
    return config


class TestKeying:
    def key(self, library, **overrides):
        return library.key(library_config(**overrides), long_program)

    def test_stable(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        assert self.key(library) == self.key(library)

    def test_core_model_swap_shares_entry(self, tmp_path):
        """Timing-only sections are prefix-irrelevant: a core-model
        study forks every variant from one snapshot."""
        library = SnapshotLibrary(str(tmp_path))
        assert (self.key(library)
                == self.key(library, core__model="out_of_order"))

    def test_network_swap_shares_entry(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        assert (self.key(library)
                == self.key(library, network__memory_model="ring"))

    def test_interval_geometry_shares_entry(self, tmp_path):
        """Sampling geometry past the switch point is post-prefix."""
        library = SnapshotLibrary(str(tmp_path))
        base = self.key(library)
        config = library_config(ff_until=1500)
        config.sample.period = 4000
        config.sample.detail = 1000
        config.sample.warmup = 500
        assert library.key(config, long_program) == base

    def test_seed_flip_changes_key(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        config = library_config()
        config.seed = 7
        assert library.key(config, long_program) != self.key(library)

    def test_ff_target_changes_key(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        assert self.key(library) != self.key(library, sample__ff_until=999)

    def test_workload_identity_changes_key(self, tmp_path):
        from repro.distrib.wire import WorkloadRef
        library = SnapshotLibrary(str(tmp_path))
        config = library_config()
        a = library.key(config, WorkloadRef("fft", 2, 0.3))
        b = library.key(config, WorkloadRef("fft", 2, 0.5))
        c = library.key(config, WorkloadRef("lu", 2, 0.3))
        assert len({a, b, c}) == 3

    def test_format_changes_key(self, tmp_path, monkeypatch):
        """Entries filed under another format are never forked."""
        import repro.sample.library as library_module
        library = SnapshotLibrary(str(tmp_path))
        current = self.key(library)
        monkeypatch.setattr(library_module, "LIBRARY_FORMAT",
                            "repro.sample/1")
        assert self.key(library) != current

    def test_args_change_key(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        config = library_config()
        assert (library.key(config, long_program, ())
                != library.key(config, long_program, (1,)))

    def test_key_stable_across_hash_seeds(self, tmp_path):
        """The key must not depend on ``PYTHONHASHSEED`` — a serve
        fleet's children must agree on entry identity."""
        script = (
            "from repro.common.config import SimulationConfig\n"
            "from repro.distrib.wire import WorkloadRef\n"
            "from repro.sample.library import SnapshotLibrary\n"
            "c = SimulationConfig(num_tiles=4, seed=11)\n"
            "c.sample.ff_until = 5000\n"
            "c.validate()\n"
            "lib = SnapshotLibrary(%r)\n"
            "print(lib.key(c, WorkloadRef('fft', 4, 0.3)))\n"
            % str(tmp_path))
        keys = set()
        for hash_seed in ("0", "1", "31337"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(os.getcwd(), "src"),
                            env.get("PYTHONPATH")) if p)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True)
            keys.add(out.stdout.strip())
        assert len(keys) == 1

    def test_descriptor_for_named_workload(self):
        from repro.distrib.wire import WorkloadRef
        descriptor = workload_descriptor(WorkloadRef("fft", 4, 0.5))
        assert descriptor["workload"] == "fft"
        assert descriptor["nthreads"] == 4
        assert descriptor["scale"] == 0.5


class TestEntries:
    def test_prime_then_hit(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, primed = library.ensure(config, long_program)
        assert primed and library.has(key)
        again, primed_again = library.ensure(config, long_program)
        assert again == key and not primed_again
        assert library.stats == {"primes": 1, "hits": 1}

    def test_meta_records_identity_and_events(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, _ = library.ensure(config, long_program)
        meta = library.meta(key)
        assert meta["format"] == "repro.sample/2"
        assert meta["ff_until"] == config.sample.ff_until
        assert meta["prefix_hash"] == config.prefix_hash()
        # The primer's SAMPLE telemetry rides along: exactly one
        # fast-forward completion.
        names = [event["name"] for event in meta["events"]]
        assert names.count("ff.done") == 1

    def test_entries_and_drop(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        key, _ = library.ensure(config, long_program)
        assert [k for k, _ in library.entries()] == [key]
        assert library.drop(key)
        assert library.entries() == []
        assert not library.drop(key)

    def test_priming_requires_ff(self, tmp_path):
        config = library_config(tmp_path, ff_until=0)
        library = SnapshotLibrary(str(tmp_path / "lib"))
        with pytest.raises(SampleError):
            library.prime(config, long_program)

    def test_short_workload_fails_loudly(self, tmp_path):
        config = library_config(tmp_path, ff_until=10_000_000)
        library = SnapshotLibrary(config.sample.library)
        with pytest.raises(SampleError, match="finished before"):
            library.prime(config, long_program)

    def test_fork_unknown_key(self, tmp_path):
        library = SnapshotLibrary(str(tmp_path))
        with pytest.raises(SampleError, match="no library entry"):
            library.fork("deadbeefdeadbeef", library_config())


class TestForkDeterminism:
    def test_forked_equals_unshared(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        outcome = library.verify(config, long_program)
        assert outcome["identical"]

    def test_core_variant_forked_equals_unshared(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        library.ensure(config, long_program)
        variant = library_config(tmp_path, core__model="out_of_order")
        outcome = library.verify(variant, long_program)
        assert outcome["identical"]
        assert not outcome["primed"]  # shared the in-order prefix
        assert library.stats["primes"] == 1

    def test_interval_variant_forked_equals_unshared(self, tmp_path):
        """Warmup-first period geometry keeps an interval-sampled fork
        byte-identical to the unshared run (the fork must discard the
        primer's open window when the variant starts in warmup)."""
        config = library_config(tmp_path)
        config.sample.period = 4000
        config.sample.detail = 1000
        config.sample.warmup = 600
        config.validate()
        library = SnapshotLibrary(config.sample.library)
        outcome = library.verify(config, long_program)
        assert outcome["identical"]


class TestSharedPrefixSweep:
    def test_three_variant_sweep_primes_once(self, tmp_path):
        """The acceptance scenario: a 3-variant sweep over one prefix
        performs exactly one fast-forward."""
        library = SnapshotLibrary(str(tmp_path / "lib"))
        configs = []
        for model, width in (("in_order", 1), ("in_order", 2),
                             ("out_of_order", 2)):
            config = library_config(tmp_path)
            config.core.model = model
            config.core.dispatch_width = width
            config.validate()
            configs.append(config)
        results = sweep(configs, long_program, share_prefix=True,
                        library=library)
        assert len(results) == 3
        assert library.stats == {"primes": 1, "hits": 2}
        keys = {r.sample["library"]["key"] for r in results}
        assert len(keys) == 1
        assert [r.sample["library"]["primed"] for r in results] \
            == [True, False, False]
        # Exactly one fast-forward in the primed entry's telemetry.
        meta = library.meta(keys.pop())
        names = [event["name"] for event in meta["events"]]
        assert names.count("ff.done") == 1

    def test_explicit_library_needs_no_config_root(self, tmp_path):
        """The documented calling convention: passing ``library=``
        serves every fast-forwarding variant even when no config names
        a library directory — sweep fills the root in itself."""
        library = SnapshotLibrary(str(tmp_path / "lib"))
        configs = []
        for model in ("in_order", "out_of_order"):
            config = library_config(None)  # sample.library unset
            config.core.model = model
            config.validate()
            assert not config.sample.library
            configs.append(config)
        results = sweep(configs, long_program, share_prefix=True,
                        library=library)
        assert library.stats == {"primes": 1, "hits": 1}
        assert [r.sample["library"]["root"] for r in results] \
            == [library.root] * 2

    def test_sweep_without_share_prefix_runs_unshared(self, tmp_path):
        config = library_config(tmp_path)
        library = SnapshotLibrary(config.sample.library)
        results = sweep([config], long_program)
        assert len(results) == 1
        assert library.stats == {"primes": 0, "hits": 0}

    def test_run_with_library_annotates_result(self, tmp_path):
        config = library_config(tmp_path)
        result = run_with_library(config, long_program)
        annotation = result.sample["library"]
        assert annotation["primed"]
        assert annotation["root"] == config.sample.library
        forked = run_with_library(config, long_program)
        assert not forked.sample["library"]["primed"]
        assert (roi_metrics(forked) == roi_metrics(result))
