"""Tests for the streaming shard loader and its trainer integration.

The contracts under test are the acceptance criteria of the streaming
training pipeline: loader-based training is bit-identical to in-memory
training on the merged dataset for the same seed, peak memory stays bounded
by O(shard) (not O(dataset)), and shuffling is independent of the prefetch
worker count.
"""

import numpy as np
import pytest

from repro.data.dataset import datasets_bit_identical, split_dataset, split_shape_runs
from repro.data.loader import ShardDataLoader
from repro.train import Trainer, make_model
from repro.utils.parallel import Prefetcher


def make_loader(config, shard_dir, **kwargs):
    return ShardDataLoader.from_directory(
        shard_dir, fidelities=config.fidelities, **kwargs
    )


class TestPrefetcher:
    def test_results_in_task_order(self):
        tasks = list(range(20))
        with Prefetcher(lambda x: x * x, tasks, workers=4) as prefetcher:
            results = [prefetcher.next() for _ in tasks]
        assert results == [x * x for x in tasks]

    def test_synchronous_fallback(self):
        prefetcher = Prefetcher(lambda x: -x, [1, 2, 3], workers=0)
        assert [prefetcher.next() for _ in range(3)] == [-1, -2, -3]

    def test_exhaustion_raises(self):
        prefetcher = Prefetcher(lambda x: x, [1], workers=1)
        prefetcher.next()
        with pytest.raises(StopIteration):
            prefetcher.next()
        prefetcher.close()

    def test_bounded_lookahead(self):
        in_flight = []

        def fn(x):
            in_flight.append(x)
            return x

        prefetcher = Prefetcher(fn, list(range(10)), workers=1, depth=2)
        # Only the lookahead window is submitted before consumption starts.
        assert len(in_flight) <= 2
        results = [prefetcher.next() for _ in range(10)]
        assert results == list(range(10))

    def test_close_cancels(self):
        prefetcher = Prefetcher(lambda x: x, list(range(100)), workers=1, depth=1)
        prefetcher.close()
        assert len(prefetcher) == 0


class TestShardDataLoader:
    def test_matches_merged_dataset_bitwise(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir)
        assert len(loader) == len(merged)
        assert loader.field_scale == merged.field_scale
        assert datasets_bit_identical(merged, loader.materialize())

    def test_index_arrays_match_merged(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir)
        np.testing.assert_array_equal(loader.fidelity_array(), merged.fidelity_array())
        np.testing.assert_array_equal(loader.design_id_array(), merged.design_id_array())
        np.testing.assert_array_equal(
            loader.transmission_array(), merged.transmission_array()
        )
        assert loader.sample_shapes() == merged.sample_shapes()

    def test_gather_matches_merged(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir)
        indices = np.array([7, 0, 3, 0, 11])
        loader_inputs, loader_targets = loader.gather(indices)
        merged_inputs, merged_targets = merged.gather(indices)
        np.testing.assert_array_equal(loader_inputs, merged_inputs)
        np.testing.assert_array_equal(loader_targets, merged_targets)

    def test_batches_bit_identical_to_dataset(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir)
        from_loader = list(loader.batches(4, shuffle=True, rng=123))
        from_merged = list(merged.batches(4, shuffle=True, rng=123))
        assert len(from_loader) == len(from_merged)
        for (li, lt, lc), (mi, mt, mc) in zip(from_loader, from_merged):
            np.testing.assert_array_equal(lc, mc)
            np.testing.assert_array_equal(li, mi)
            np.testing.assert_array_equal(lt, mt)

    def test_memory_bounded_by_cache_not_dataset(self, tiny_shard_run):
        """Shard count >> per-batch shard count: residency stays at the cache cap."""
        config, shard_dir, _ = tiny_shard_run
        loader = make_loader(config, shard_dir, cache_shards=2)
        num_shards = loader.metadata["num_shards"]
        assert num_shards == 12
        for _ in range(2):  # two epochs, batch of 2 touches <= 2 shards
            for _ in loader.batches(2, shuffle=True, rng=0):
                pass
        assert loader.stats.max_resident <= 2 < num_shards
        assert loader.stats.shard_loads >= num_shards

    def test_prefetch_does_not_change_batches(self, tiny_shard_run):
        config, shard_dir, _ = tiny_shard_run
        plain = make_loader(config, shard_dir, cache_shards=2, prefetch=0)
        prefetched = make_loader(config, shard_dir, cache_shards=2, prefetch=3)
        for seed in (0, 7):
            a = list(plain.batches(4, shuffle=True, rng=seed))
            b = list(prefetched.batches(4, shuffle=True, rng=seed))
            assert len(a) == len(b)
            for (ai, at, ac), (bi, bt, bc) in zip(a, b):
                np.testing.assert_array_equal(ac, bc)
                np.testing.assert_array_equal(ai, bi)
                np.testing.assert_array_equal(at, bt)

    def test_restrict_fidelity_matches_filter(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir)
        view = loader.restrict(fidelities=["high"])
        filtered = merged.filter(lambda s: s.fidelity == "high")
        assert len(view) == len(filtered) > 0
        assert view.field_scale == merged.field_scale
        assert datasets_bit_identical(filtered, view.materialize())

    def test_split_matches_split_dataset(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir)
        train_view, test_view = loader.split(train_fraction=0.7, rng=42)
        train_set, test_set = split_dataset(merged, train_fraction=0.7, rng=42)
        assert datasets_bit_identical(train_set, train_view.materialize())
        assert datasets_bit_identical(test_set, test_view.materialize())

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardDataLoader.from_directory(tmp_path / "nope")
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            ShardDataLoader.from_directory(tmp_path / "empty")

    def test_unknown_fidelity_order_rejected(self, tiny_shard_run):
        config, shard_dir, _ = tiny_shard_run
        with pytest.raises(ValueError, match="fidelities"):
            ShardDataLoader.from_directory(shard_dir, fidelities=("low",))

    def test_mixed_generation_runs_rejected(self, tiny_shard_run, tmp_path):
        """A reused shard_dir holding two configs' artifacts must fail loudly,
        not train on a silently interleaved mix."""
        import shutil

        from repro.data.generator import DatasetGenerator

        from dataclasses import replace

        config, shard_dir, _ = tiny_shard_run
        mixed_dir = tmp_path / "mixed"
        shutil.copytree(shard_dir, mixed_dir)
        # A second run with a different seed writes new fingerprint-named
        # shards for the same design ids next to the stale ones.
        stale_config = replace(
            config, seed=99, num_designs=2, shard_dir=str(mixed_dir)
        )
        DatasetGenerator(stale_config).generate()
        with pytest.raises(ValueError, match="different generation runs"):
            ShardDataLoader.from_directory(mixed_dir, fidelities=config.fidelities)

    def test_stream_explicit_chunks(self, tiny_shard_run):
        """stream() (the curriculum/prefetch seam) equals per-chunk gather."""
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir, cache_shards=2, prefetch=2)
        chunks = [np.array([4, 1]), np.array([9, 9, 0]), np.array([2])]
        streamed = list(loader.stream(chunks))
        assert len(streamed) == len(chunks)
        for chunk, (inputs, targets) in zip(chunks, streamed):
            expected_inputs, expected_targets = merged.gather(chunk)
            np.testing.assert_array_equal(inputs, expected_inputs)
            np.testing.assert_array_equal(targets, expected_targets)

    def test_cache_hits_counted_once_per_access(self, tiny_shard_run):
        """Regression: ensure+gather used to double-count hits per batch."""
        config, shard_dir, _ = tiny_shard_run
        loader = make_loader(config, shard_dir, cache_shards=12)
        order = np.arange(len(loader))
        expected_accesses = sum(
            len({loader._refs[i].shard for i in chunk})
            for chunk in (order[s : s + 4] for s in range(0, len(order), 4))
        )
        loader.cache_clear()
        for _ in loader.batches(4, shuffle=False):
            pass
        assert loader.stats.shard_loads == loader.metadata["num_shards"]
        first_epoch_hits = loader.stats.cache_hits
        for _ in loader.batches(4, shuffle=False):
            pass
        # Second epoch is fully cached: exactly one hit per chunk-shard access.
        assert loader.stats.cache_hits - first_epoch_hits == expected_accesses

    def test_getitem_streams_single_samples(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir, cache_shards=1)
        sample = loader[5]
        np.testing.assert_array_equal(sample.inputs, merged[5].inputs)
        assert sample.fidelity == merged[5].fidelity
        assert loader.stats.max_resident == 1


class TestSplitShapeRuns:
    def test_uniform_chunk_stays_whole(self):
        chunk = np.array([3, 1, 2])
        runs = split_shape_runs(chunk, {1: (4, 4), 2: (4, 4), 3: (4, 4)})
        assert len(runs) == 1
        np.testing.assert_array_equal(runs[0], chunk)

    def test_splits_at_shape_boundaries(self):
        shapes = {0: (4, 4), 1: (8, 8), 2: (8, 8), 3: (4, 4)}
        runs = split_shape_runs(np.array([0, 1, 2, 3]), shapes)
        assert [list(r) for r in runs] == [[0], [1, 2], [3]]

    def test_empty_chunk(self):
        assert split_shape_runs(np.array([], dtype=int), {}) == []


class TestLoaderTraining:
    def test_training_bit_identical_to_in_memory(self, tiny_shard_run):
        """The headline acceptance criterion: same seed, same loss curves."""
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir, cache_shards=2)
        kwargs = dict(epochs=3, batch_size=4, learning_rate=4e-3, seed=11)
        in_memory = Trainer(
            make_model("fno", width=8, modes=(3, 3), depth=2, rng=0), merged, **kwargs
        ).train()
        streamed = Trainer(
            make_model("fno", width=8, modes=(3, 3), depth=2, rng=0),
            data=loader,
            **kwargs,
        ).train()
        assert in_memory.epochs == streamed.epochs

    def test_training_independent_of_prefetch_workers(self, tiny_shard_run):
        config, shard_dir, _ = tiny_shard_run
        histories = []
        for prefetch in (0, 2):
            loader = make_loader(config, shard_dir, cache_shards=2, prefetch=prefetch)
            model = make_model("fno", width=8, modes=(3, 3), depth=2, rng=0)
            histories.append(
                Trainer(model, data=loader, epochs=2, batch_size=4, seed=5).train()
            )
        assert histories[0].epochs == histories[1].epochs

    def test_trainer_rejects_both_seams(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir)
        with pytest.raises(ValueError, match="either train_set or data"):
            Trainer(
                make_model("fno", width=8, modes=(3, 3), depth=2, rng=0),
                merged,
                data=loader,
            )
        with pytest.raises(ValueError, match="required"):
            Trainer(make_model("fno", width=8, modes=(3, 3), depth=2, rng=0))

    def test_transmission_training_on_loader(self, tiny_shard_run):
        config, shard_dir, merged = tiny_shard_run
        loader = make_loader(config, shard_dir)
        model = make_model("blackbox", width=8, rng=0)
        history = Trainer(
            model, data=loader, target="transmission", epochs=2, batch_size=4, seed=0
        ).train()
        assert "train_mae" in history.final()
        reference = Trainer(
            make_model("blackbox", width=8, rng=0),
            merged,
            target="transmission",
            epochs=2,
            batch_size=4,
            seed=0,
        ).train()
        assert history.epochs == reference.epochs


class TestRefresh:
    """Loader growth: the active-learning append path."""

    @pytest.fixture()
    def growing_run(self, tmp_path):
        """A fresh single-use shard run plus an *append* config for it.

        Function-scoped on purpose: refresh tests grow the directory, which
        must never happen to the shared session-scoped ``tiny_shard_run``.
        """
        from dataclasses import replace

        from repro.data.generator import DatasetGenerator, GeneratorConfig

        config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=3,
            fidelities=("low", "high"),
            with_gradient=False,
            seed=0,
            device_kwargs=dict(domain=3.0, design_size=1.4, dl=0.1),
            engine={"low": "recycled", "high": "direct"},
            shard_size=2,
            shard_dir=str(tmp_path / "shards"),
        )
        DatasetGenerator(config).generate()
        append_config = replace(
            config, num_designs=2, design_id_offset=3, seed=7
        )
        return config, append_config

    def test_refresh_appends_and_preserves_existing_bytes(self, growing_run):
        from dataclasses import replace

        from repro.data.generator import DatasetGenerator

        config, append_config = growing_run
        loader = ShardDataLoader.from_directory(
            config.shard_dir, fidelities=config.fidelities
        )
        before = loader.materialize()
        field_scale = loader.field_scale

        appended = DatasetGenerator(append_config).generate()
        assert loader.refresh() == len(appended)
        assert len(loader) == len(before) + len(appended)
        # The frozen normalization is the contract that keeps old samples
        # byte-identical: the model trained on them must not see them move.
        assert loader.field_scale == field_scale
        after = loader.materialize()
        from repro.data.dataset import PhotonicDataset

        assert datasets_bit_identical(
            before,
            PhotonicDataset(after.samples[: len(before)], field_scale=field_scale),
        )
        # New design ids continue past the existing ones.
        new_ids = {s.design_id for s in after.samples[len(before) :]}
        assert new_ids == {3, 4}
        # A fresh loader over the grown directory (normalization pinned) sees
        # the same sample *content*.  Order legitimately differs: refresh
        # appends (stable indices for the training loop), a fresh loader
        # re-sorts everything fidelity-major — so compare canonically sorted.
        fresh = ShardDataLoader.from_directory(
            config.shard_dir, fidelities=config.fidelities, field_scale=field_scale
        )
        rank = {f: i for i, f in enumerate(config.fidelities)}

        def canon(dataset):
            samples = sorted(
                dataset.samples,
                key=lambda s: (rank[s.fidelity], s.design_id, s.spec_index),
            )
            return PhotonicDataset(samples, field_scale=dataset.field_scale)

        assert datasets_bit_identical(canon(after), canon(fresh.materialize()))

    def test_refresh_without_new_shards_is_a_noop(self, growing_run):
        config, _ = growing_run
        loader = ShardDataLoader.from_directory(
            config.shard_dir, fidelities=config.fidelities
        )
        count = len(loader)
        assert loader.refresh() == 0
        assert len(loader) == count

    def test_refresh_rejects_stale_mix(self, growing_run):
        """A new shard re-labelling existing (fidelity, design_id) pairs is a
        mixed-run artifact; refresh must reject it and stay unchanged."""
        from dataclasses import replace

        from repro.data.generator import DatasetGenerator

        config, _ = growing_run
        loader = ShardDataLoader.from_directory(
            config.shard_dir, fidelities=config.fidelities
        )
        count = len(loader)
        paths = list(loader._paths)
        # Same design ids (no offset), different seed: new fingerprint files
        # that collide with the existing ids.
        DatasetGenerator(replace(config, num_designs=2, seed=99)).generate()
        with pytest.raises(ValueError, match="different generation runs"):
            loader.refresh()
        assert len(loader) == count
        assert loader._paths == paths

    def test_refresh_rejects_views(self, growing_run):
        config, _ = growing_run
        loader = ShardDataLoader.from_directory(
            config.shard_dir, fidelities=config.fidelities
        )
        with pytest.raises(ValueError, match="root loader"):
            loader.restrict(fidelities=["low"]).refresh()
        with pytest.raises(ValueError, match="root loader"):
            loader.split(0.5, rng=0)[0].refresh()

    def test_refresh_requires_directory_or_paths(self, growing_run):
        from pathlib import Path

        config, append_config = growing_run
        from repro.data.generator import DatasetGenerator

        paths = sorted(Path(config.shard_dir).glob("shard_*.npz"))
        loader = ShardDataLoader(paths, fidelities=config.fidelities)
        with pytest.raises(ValueError, match="shard_paths"):
            loader.refresh()
        DatasetGenerator(append_config).generate()
        grown = sorted(Path(config.shard_dir).glob("shard_*.npz"))
        assert loader.refresh(shard_paths=grown) > 0

    def test_stale_format_artifacts_are_skipped(self, growing_run):
        """Upgrade path: a resumed directory can hold older-format artifacts
        next to their regenerated versions (the generator never deletes files
        it did not write).  The loader must skip them — at construction and
        on refresh — instead of tripping the mixed-run check."""
        import json
        from pathlib import Path

        import numpy as np

        config, _ = growing_run
        shard_dir = Path(config.shard_dir)
        # Forge a "previous release" artifact: same content as a real shard,
        # header version rolled back, under a different fingerprint name.
        source = sorted(shard_dir.glob("shard_*.npz"))[0]
        with np.load(source, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
        header = json.loads(bytes(arrays["__header__"].tobytes()).decode("utf-8"))
        header["version"] = 1
        arrays["__header__"] = np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        )
        stale = shard_dir / "shard_00000000000000000000.npz"
        np.savez_compressed(stale, **arrays)

        loader = ShardDataLoader.from_directory(
            config.shard_dir, fidelities=config.fidelities
        )
        assert stale not in loader._paths
        assert loader.refresh() == 0  # the stale file never counts as "new"

        # A directory holding nothing but stale artifacts fails loudly.
        only_stale = shard_dir / "only_stale"
        only_stale.mkdir()
        np.savez_compressed(only_stale / "shard_0000.npz", **arrays)
        with pytest.raises(ValueError, match="format version"):
            ShardDataLoader.from_directory(only_stale)

    def test_refresh_rejects_unknown_fidelity(self, growing_run, tmp_path):
        from dataclasses import replace

        from repro.data.generator import DatasetGenerator

        config, append_config = growing_run
        loader = ShardDataLoader.from_directory(
            config.shard_dir, fidelities=config.fidelities
        )
        DatasetGenerator(
            replace(
                append_config,
                fidelities=("medium",),
                engine="recycled",
                device_kwargs=dict(config.device_kwargs),
            )
        ).generate()
        with pytest.raises(ValueError, match="fidelities"):
            loader.refresh()
