"""Tests for the deterministic fault-injection harness (repro.utils.faults)
and its end-to-end recovery contracts through :class:`DatasetGenerator`."""

import os
import time

import pytest

from repro.data.dataset import datasets_bit_identical
from repro.data.generator import (
    DatasetGenerator,
    GeneratorConfig,
    ShardExecutionError,
)
import repro.data.generator as generator_module
from repro.data.shards import run_shard as real_run_shard
from repro.fdfd.engine import default_factorization_cache
from repro.utils import faults

from tests.conftest import TINY_DEVICE_KWARGS


BASE_CONFIG = dict(
    device_name="bending",
    strategy="random",
    num_designs=4,
    with_gradient=False,
    seed=3,
    device_kwargs=TINY_DEVICE_KWARGS,
    shard_size=2,
    fidelities=("low",),
    max_retries=2,
    retry_backoff=0.05,
)


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One fault-free reference dataset the fault runs must reproduce."""
    shard_dir = tmp_path_factory.mktemp("baseline-shards")
    faults.clear_plan()
    generator = DatasetGenerator(GeneratorConfig(shard_dir=str(shard_dir), **BASE_CONFIG))
    return generator.generate(workers=2)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = faults.FaultPlan(
            kill_task=3, delay_task=1, delay_seconds=0.5, truncate_shard=2,
            scratch="/tmp/x",
        )
        assert faults.FaultPlan.from_json(plan.to_json()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            faults.FaultPlan.from_json('{"explode_randomly": true}')

    def test_env_plan_resolution_tracks_changes(self, monkeypatch):
        assert faults.get_plan() is None
        monkeypatch.setenv(faults.ENV_VAR, faults.FaultPlan(kill_task=1).to_json())
        assert faults.get_plan().kill_task == 1
        monkeypatch.setenv(faults.ENV_VAR, faults.FaultPlan(kill_task=2).to_json())
        assert faults.get_plan().kill_task == 2
        monkeypatch.delenv(faults.ENV_VAR)
        assert faults.get_plan() is None

    def test_active_plan_installs_and_restores(self):
        assert faults.get_plan() is None
        with faults.active_plan(faults.FaultPlan(delay_task=0)) as plan:
            assert faults.get_plan() is plan
            assert faults.ENV_VAR in os.environ  # workers inherit via env
        assert faults.get_plan() is None
        assert faults.ENV_VAR not in os.environ


class TestInjectors:
    def test_all_hooks_noop_when_disabled(self, tmp_path):
        artifact = tmp_path / "shard.npz"
        artifact.write_bytes(b"payload")
        assert faults.on_task_start(0) is None
        faults.on_shard_saved(0, artifact)
        assert artifact.read_bytes() == b"payload"  # untouched

    def test_kill_is_noop_outside_workers(self, tmp_path):
        faults.install_plan(
            faults.FaultPlan(kill_task=0, scratch=str(tmp_path))
        )
        # Not marked as a worker: surviving this call is the assertion.
        assert faults.on_task_start(0) is None

    def test_delay_fires_exactly_once(self, tmp_path):
        faults.install_plan(
            faults.FaultPlan(delay_task=0, delay_seconds=0.2, scratch=str(tmp_path))
        )
        start = time.monotonic()
        faults.on_task_start(0)
        first = time.monotonic() - start
        start = time.monotonic()
        faults.on_task_start(0)  # marker already claimed
        second = time.monotonic() - start
        assert first >= 0.2
        assert second < 0.1

    def test_truncate_targets_one_shard(self, tmp_path):
        faults.install_plan(faults.FaultPlan(truncate_shard=1, scratch=str(tmp_path)))
        target = tmp_path / "one.npz"
        other = tmp_path / "zero.npz"
        target.write_bytes(b"x" * 100)
        other.write_bytes(b"y" * 100)
        faults.on_shard_saved(0, other)
        faults.on_shard_saved(1, target)
        faults.on_shard_saved(1, target)  # fires once
        assert other.stat().st_size == 100
        assert target.stat().st_size == 50

    def test_scratch_markers_shared_across_plan_reloads(self, tmp_path):
        plan = faults.FaultPlan(delay_task=0, delay_seconds=0.2, scratch=str(tmp_path))
        with faults.active_plan(plan):
            faults.on_task_start(0)
        # A "new process" (fresh local state, same scratch) must see the claim.
        with faults.active_plan(plan):
            start = time.monotonic()
            faults.on_task_start(0)
            assert time.monotonic() - start < 0.1


class TestGeneratorFaultRecovery:
    def test_worker_death_recovers_bit_identical(self, baseline, tmp_path):
        default_factorization_cache.clear()
        plan = faults.FaultPlan(kill_task=0, scratch=str(tmp_path / "scratch"))
        with faults.active_plan(plan):
            generator = DatasetGenerator(
                GeneratorConfig(shard_dir=str(tmp_path / "shards"), **BASE_CONFIG)
            )
            dataset = generator.generate(workers=2)
        report = generator.last_task_report
        assert datasets_bit_identical(baseline, dataset)
        assert report.worker_crashes == 1
        assert report.respawns >= 1
        assert report.wasted_executions() <= 1  # < 1 re-shard of waste
        assert not report.serial_fallback

    def test_task_timeout_recovers_bit_identical(self, baseline, tmp_path):
        default_factorization_cache.clear()
        plan = faults.FaultPlan(
            delay_task=0, delay_seconds=30.0, scratch=str(tmp_path / "scratch")
        )
        config = GeneratorConfig(
            shard_dir=str(tmp_path / "shards"), task_timeout=1.5, **BASE_CONFIG
        )
        with faults.active_plan(plan):
            generator = DatasetGenerator(config)
            start = time.monotonic()
            dataset = generator.generate(workers=2)
            elapsed = time.monotonic() - start
        report = generator.last_task_report
        assert datasets_bit_identical(baseline, dataset)
        assert report.timeouts >= 1
        assert report.wasted_executions() <= 1
        assert elapsed < 25.0  # never sat out the injected 30 s delay

    def test_truncated_shard_quarantined_and_recovered(self, baseline, tmp_path):
        default_factorization_cache.clear()
        shard_dir = tmp_path / "shards"
        plan = faults.FaultPlan(truncate_shard=1, scratch=str(tmp_path / "scratch"))
        with faults.active_plan(plan):
            generator = DatasetGenerator(GeneratorConfig(shard_dir=str(shard_dir), **BASE_CONFIG))
            dataset = generator.generate(workers=2)
        assert datasets_bit_identical(baseline, dataset)
        assert generator.last_shard_recoveries == 1
        assert list(shard_dir.glob("*.bad*")), "corpse was not quarantined"

        # The recovery rewrote a valid artifact: a resumed run reuses
        # everything and recomputes nothing.
        resumed = DatasetGenerator(GeneratorConfig(shard_dir=str(shard_dir), **BASE_CONFIG))
        dataset2 = resumed.generate(workers=2)
        assert datasets_bit_identical(baseline, dataset2)
        assert resumed.last_task_report.attempts == {}

    def test_in_process_recovery_runs_at_one_blas_thread(self, tmp_path):
        """A shard recomputed in a parent running two BLAS threads keeps the
        bytes its pool worker wrote: dense kernels round differently at two
        threads (seen at dl 0.05), so the recovery runs pinned like a task."""
        import numpy.linalg, scipy.linalg  # noqa: F401  (both bundled OpenBLAS copies)
        from repro.utils.executor import _openblas_thread_calls

        calls = _openblas_thread_calls()
        if not calls:
            pytest.skip("no OpenBLAS loaded in this process")
        config = {**BASE_CONFIG, "device_kwargs": {**TINY_DEVICE_KWARGS, "dl": 0.05}}
        saved = [get_num_threads() for _, get_num_threads in calls]
        default_factorization_cache.clear()
        try:
            for set_num_threads, _ in calls:
                set_num_threads(2)
            reference = DatasetGenerator(
                GeneratorConfig(shard_dir=str(tmp_path / "reference"), **config)
            ).generate(workers=2)
            plan = faults.FaultPlan(truncate_shard=1, scratch=str(tmp_path / "scratch"))
            with faults.active_plan(plan):
                generator = DatasetGenerator(
                    GeneratorConfig(shard_dir=str(tmp_path / "shards"), **config)
                )
                dataset = generator.generate(workers=2)
        finally:
            for (set_num_threads, _), count in zip(calls, saved):
                set_num_threads(count)
        assert generator.last_shard_recoveries == 1
        assert datasets_bit_identical(reference, dataset)

    def test_permanent_failure_surfaces_and_resume_recomputes_exactly_it(
        self, baseline, tmp_path, monkeypatch
    ):
        shard_dir = tmp_path / "shards"
        config = GeneratorConfig(
            shard_dir=str(shard_dir), **{**BASE_CONFIG, "max_retries": 1}
        )

        def failing_run_shard(task):
            if task.spec.index == 1:
                raise RuntimeError("injected permanent shard failure")
            return real_run_shard(task)

        monkeypatch.setattr(generator_module, "run_shard", failing_run_shard)
        generator = DatasetGenerator(config)
        with pytest.raises(ShardExecutionError) as excinfo:
            generator.generate(workers=1)
        error = excinfo.value
        assert len(error.shard_failures) == 1
        assert error.shard_failures[0][0].spec.index == 1
        assert error.report.attempts[1] == 2  # initial + one retry
        # The sibling shard completed and persisted despite the failure.
        artifacts = sorted(shard_dir.glob("shard_*.npz"))
        assert len(artifacts) == 1
        mtime_before = artifacts[0].stat().st_mtime_ns

        # Fault gone: a resumed run recomputes exactly the lost shard.
        monkeypatch.setattr(generator_module, "run_shard", real_run_shard)
        resumed = DatasetGenerator(config)
        dataset = resumed.generate(workers=1)
        assert datasets_bit_identical(baseline, dataset)
        assert len(resumed.last_task_report.attempts) == 1  # one shard ran
        assert artifacts[0].stat().st_mtime_ns == mtime_before  # untouched

    def test_truncated_serial_shard_resumes_exactly_it(self, baseline, tmp_path):
        """At ``workers=1`` the artifact is written on the background writer,
        and the truncation fires after its rename: the returned labels are the
        in-memory ones, and a resumed run recomputes exactly that shard."""
        shard_dir = tmp_path / "shards"
        config = GeneratorConfig(shard_dir=str(shard_dir), **BASE_CONFIG)
        plan = faults.FaultPlan(truncate_shard=1, scratch=str(tmp_path / "scratch"))
        with faults.active_plan(plan):
            dataset = DatasetGenerator(config).generate(workers=1)
        assert datasets_bit_identical(baseline, dataset)

        resumed = DatasetGenerator(config)
        dataset2 = resumed.generate(workers=1)
        assert datasets_bit_identical(baseline, dataset2)
        assert len(list(shard_dir.glob("*.bad*"))) == 1
        assert resumed.last_task_report.attempts == {0: 1}  # shard 1 alone ran

    def test_caches_warmed_at_two_blas_threads_keep_results_bitwise(self, tmp_path):
        """Process-wide cached artifacts (exterior factorizations, port modes,
        normalizations) are built at one BLAS thread, so a cache warmed by an
        in-process label at two threads changes neither what forked workers
        nor what an in-process recovery compute."""
        import numpy as np
        import numpy.linalg, scipy.linalg  # noqa: F401  (both bundled OpenBLAS copies)
        from repro.data.labels import extract_labels_batch
        from repro.devices.factory import make_device
        from repro.fdfd import modes, simulation
        from repro.utils.executor import _openblas_thread_calls

        calls = _openblas_thread_calls()
        if not calls:
            pytest.skip("no OpenBLAS loaded in this process")
        device_kwargs = {**TINY_DEVICE_KWARGS, "dl": 0.05}
        config = {**BASE_CONFIG, "device_kwargs": device_kwargs}

        def clear_caches():
            default_factorization_cache.clear()
            simulation._NORMALIZATION_CACHE.clear()
            modes._MODE_CACHE.clear()

        clear_caches()
        cold = DatasetGenerator(
            GeneratorConfig(shard_dir=str(tmp_path / "cold"), **config)
        ).generate(workers=2)
        clear_caches()
        saved = [get_num_threads() for _, get_num_threads in calls]
        try:
            for set_num_threads, _ in calls:
                set_num_threads(2)
            device = make_device("bending", fidelity="low", **device_kwargs)
            density = np.random.default_rng(0).uniform(0.0, 1.0, device.design_shape)
            extract_labels_batch(device, density, with_gradient=False)
            warm = DatasetGenerator(
                GeneratorConfig(shard_dir=str(tmp_path / "warm"), **config)
            ).generate(workers=2)
            plan = faults.FaultPlan(truncate_shard=1, scratch=str(tmp_path / "scratch"))
            with faults.active_plan(plan):
                generator = DatasetGenerator(
                    GeneratorConfig(shard_dir=str(tmp_path / "recovered"), **config)
                )
                recovered = generator.generate(workers=2)
        finally:
            for (set_num_threads, _), count in zip(calls, saved):
                set_num_threads(count)
            clear_caches()
        assert generator.last_shard_recoveries == 1
        assert datasets_bit_identical(cold, warm)
        assert datasets_bit_identical(cold, recovered)
