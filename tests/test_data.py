"""Tests for MAPS-Data: labels, sampling strategies, datasets and analysis."""

import os
import struct
import sys
import threading
import time
import zipfile
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.data import (
    DatasetGenerator,
    OptTrajSampling,
    PerturbedOptTrajSampling,
    PhotonicDataset,
    RandomSampling,
    Sweep,
    extract_labels,
    make_sampler,
    split_dataset,
    standardize_input,
)
from repro.data.analysis import (
    distribution_balance,
    fom_coverage,
    pattern_embedding,
    transmission_histogram,
)
import repro.data.generator as generator_module
import repro.data.shards as shards_module
from repro.data.dataset import datasets_bit_identical
from repro.data.generator import (
    GeneratorConfig,
    ShardExecutionError,
    _parse_engine,
    generate_dataset,
    main as generator_main,
)
from repro.data.labels import extract_labels_batch, field_target, spec_figure_of_merit
from repro.data.shards import (
    ShardWriter,
    engine_for_fidelity,
    load_shard,
    plan_shards,
    save_shard,
    shard_fingerprint,
    try_load_shard,
)
from repro.devices.factory import make_device
from repro.fdfd.engine import DirectEngine
from repro.fdfd.nonlinear import KerrNonlinearity

from tests.conftest import TINY_DEVICE_KWARGS


class TestLabels:
    @pytest.fixture(scope="class")
    def labels(self, tiny_bend):
        density = np.full(tiny_bend.design_shape, 0.5)
        return extract_labels(tiny_bend, density, spec=0, with_gradient=True, stage="test")

    def test_all_fields_present(self, labels, tiny_bend):
        assert labels.ez.shape == tiny_bend.grid.shape
        assert labels.hx.shape == tiny_bend.grid.shape
        assert labels.eps_r.shape == tiny_bend.grid.shape
        assert labels.adjoint_gradient.shape == tiny_bend.design_shape
        assert labels.device_name == "bending"
        assert labels.stage == "test"

    def test_figure_of_merit_consistent_with_transmissions(self, labels):
        assert labels.figure_of_merit == pytest.approx(labels.transmissions["out"], rel=1e-9)

    def test_spec_figure_of_merit_normalization(self):
        transmissions = {"out1": 0.6, "out2": 0.3}
        # Positive weights normalize by their sum: a perfect router scores 1.
        mixed = spec_figure_of_merit({"out1": 1.0, "out2": -0.5}, transmissions)
        assert mixed == pytest.approx(0.45)
        assert spec_figure_of_merit({"out1": 2.0}, transmissions) == pytest.approx(0.6)
        # All-penalty specs normalize by sum |w|, landing in [-1, 0].
        assert spec_figure_of_merit({"out1": -0.5}, transmissions) == pytest.approx(-0.6)
        assert spec_figure_of_merit(
            {"out1": -0.5, "out2": -1.5}, transmissions
        ) == pytest.approx(-(0.5 * 0.6 + 1.5 * 0.3) / 2.0)
        assert spec_figure_of_merit({}, transmissions) == 0.0

    def test_penalty_only_spec_label_fom(self):
        """kerr_limiter's high-power spec has only a penalty weight."""
        device = make_device("kerr_limiter", **TINY_DEVICE_KWARGS)
        labels = extract_labels_batch(
            device, np.full(device.design_shape, 0.5), with_gradient=False
        )
        penalty = labels[1]
        assert all(w < 0 for w in device.specs[1].port_weights.values())
        assert penalty.figure_of_merit == pytest.approx(-penalty.transmissions["out"], rel=1e-12)
        assert -1.0 <= penalty.figure_of_merit <= 0.0

    def test_spec_selection_is_canonical_and_validated(self):
        device = make_device("wdm", dl=0.1)
        density = np.full(device.design_shape, 0.5)
        labels = extract_labels_batch(device, density, specs=[-1, 0], with_gradient=False)
        assert [lab.spec_index for lab in labels] == [len(device.specs) - 1, 0]
        with pytest.raises(ValueError, match=r"'wdm' with 2 specs"):
            extract_labels_batch(device, density, specs=[2], with_gradient=False)
        stranger = replace(device.specs[0], source_mode=1)
        with pytest.raises(ValueError, match="an index or a member of device.specs"):
            extract_labels_batch(device, density, specs=[stranger], with_gradient=False)

    def test_maxwell_residual_small(self, labels):
        assert labels.maxwell_residual < 1e-10

    def test_radiation_complements_transmission(self, labels):
        assert labels.radiation == pytest.approx(1.0 - labels.total_transmission(), abs=1e-9)

    def test_without_gradient(self, tiny_bend):
        labels = extract_labels(
            tiny_bend, np.full(tiny_bend.design_shape, 0.5), spec=0, with_gradient=False
        )
        assert labels.adjoint_gradient is None

    def test_standardize_input_layout(self, labels):
        inputs = standardize_input(labels.eps_r, labels.source, labels.wavelength, labels.dl)
        assert inputs.shape == (4,) + labels.eps_r.shape
        assert inputs[0].max() <= 1.0
        assert np.abs(inputs[1:3]).max() == pytest.approx(1.0)
        np.testing.assert_allclose(inputs[3], labels.dl / labels.wavelength)

    def test_field_target_scaling(self, labels):
        target = field_target(labels.ez, field_scale=2.0, source=labels.source)
        amplitude = np.max(np.abs(labels.source))
        np.testing.assert_allclose(target[0], labels.ez.real / (2.0 * amplitude))


class TestSampling:
    def test_random_sampling_shapes_and_range(self, tiny_bend):
        samples = RandomSampling().sample(tiny_bend, 5, rng=0)
        assert len(samples) == 5
        for sample in samples:
            assert sample.density.shape == tiny_bend.design_shape
            assert sample.density.min() >= 0.0 and sample.density.max() <= 1.0
            assert sample.stage == "random"

    def test_random_sampling_mostly_binary(self, tiny_bend):
        samples = RandomSampling(binarize=True).sample(tiny_bend, 3, rng=0)
        for sample in samples:
            assert set(np.unique(sample.density)) <= {0.0, 1.0}

    def test_opt_traj_sampling_covers_low_and_high_fom(self, tiny_bend):
        samples = OptTrajSampling(iterations=8).sample(tiny_bend, 9, rng=0)
        foms = [s.fom_hint for s in samples if s.fom_hint is not None]
        assert len(samples) <= 9
        assert max(foms) > min(foms) + 0.1

    def test_perturbed_sampling_mixes_stages(self, tiny_bend):
        sampler = PerturbedOptTrajSampling(iterations=6, perturbation_fraction=0.5)
        samples = sampler.sample(tiny_bend, 10, rng=0)
        stages = {s.stage.split(":")[0] for s in samples}
        assert "perturbed" in stages and "opt-traj" in stages
        assert len(samples) == 10

    def test_make_sampler_dispatch(self):
        assert isinstance(make_sampler("random"), RandomSampling)
        assert isinstance(make_sampler("opt_traj"), OptTrajSampling)
        assert isinstance(make_sampler("perturbed_opt_traj"), PerturbedOptTrajSampling)
        with pytest.raises(ValueError):
            make_sampler("active_learning")

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RandomSampling(smooth_cells=0.0)
        with pytest.raises(ValueError):
            OptTrajSampling(iterations=0)
        with pytest.raises(ValueError):
            PerturbedOptTrajSampling(perturbation_fraction=1.0)


class TestDataset:
    def test_sample_arrays(self, tiny_dataset):
        assert len(tiny_dataset) > 0
        assert tiny_dataset.input_array().shape[1] == 4
        assert tiny_dataset.target_array().shape[1] == 2
        assert tiny_dataset.fom_array().shape == (len(tiny_dataset),)

    def test_batches_cover_dataset(self, tiny_dataset):
        seen = []
        for inputs, targets, indices in tiny_dataset.batches(2, shuffle=True, rng=0):
            assert inputs.shape[0] == targets.shape[0] == len(indices)
            seen.extend(indices.tolist())
        assert sorted(seen) == list(range(len(tiny_dataset)))

    def test_split_is_design_level(self, tiny_dataset):
        train, test = split_dataset(tiny_dataset, 0.5, rng=0)
        train_ids = {s.design_id for s in train}
        test_ids = {s.design_id for s in test}
        assert train_ids.isdisjoint(test_ids)
        assert len(train) + len(test) == len(tiny_dataset)

    def test_split_with_validation(self, tiny_dataset):
        train, val, test = split_dataset(tiny_dataset, 0.5, val_fraction=0.2, rng=0)
        assert len(train) + len(val) + len(test) == len(tiny_dataset)

    def test_split_invalid_fractions(self, tiny_dataset):
        with pytest.raises(ValueError):
            split_dataset(tiny_dataset, 0.0)
        with pytest.raises(ValueError):
            split_dataset(tiny_dataset, 0.9, val_fraction=0.5)

    def test_save_load_roundtrip(self, tiny_dataset, tmp_path):
        path = tmp_path / "dataset.npz"
        tiny_dataset.save(path)
        loaded = PhotonicDataset.load(path)
        assert len(loaded) == len(tiny_dataset)
        assert loaded.field_scale == pytest.approx(tiny_dataset.field_scale)
        np.testing.assert_allclose(loaded[0].inputs, tiny_dataset[0].inputs)
        np.testing.assert_allclose(loaded[0].target, tiny_dataset[0].target)
        assert loaded[0].device_name == tiny_dataset[0].device_name

    def test_filter(self, tiny_dataset):
        subset = tiny_dataset.filter(lambda s: s.design_id == 0)
        assert all(s.design_id == 0 for s in subset)

    def test_invalid_batch_size(self, tiny_dataset):
        with pytest.raises(ValueError):
            list(tiny_dataset.batches(0))


class TestGenerator:
    def test_generate_counts(self):
        dataset = generate_dataset(
            "bending",
            "random",
            num_designs=3,
            seed=1,
            with_gradient=False,
            device_kwargs=TINY_DEVICE_KWARGS,
        )
        # 3 designs x 1 spec x 1 fidelity.
        assert len(dataset) == 3
        assert dataset.metadata["strategy"] == "random"

    def test_multi_fidelity_pairing(self):
        config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=2,
            fidelities=("low", "high"),
            with_gradient=False,
            seed=0,
            device_kwargs=dict(domain=2.5, design_size=1.2),
        )
        # Use explicit dl values to keep the high-fidelity grid small.
        config.device_kwargs = dict(domain=2.5, design_size=1.2)
        dataset = DatasetGenerator(config).generate()
        assert len(dataset) == 4
        by_fidelity = {}
        for sample in dataset:
            by_fidelity.setdefault(sample.fidelity, set()).add(sample.design_id)
        assert by_fidelity["low"] == by_fidelity["high"]
        shapes = {s.fidelity: s.grid_shape for s in dataset}
        assert shapes["high"] != shapes["low"]

    def test_unknown_option_rejected(self):
        with pytest.raises(TypeError):
            DatasetGenerator(num_design=3)

    def test_overrides_do_not_mutate_caller_config(self):
        """Regression: **overrides used to be written into the caller's config."""
        config = GeneratorConfig(num_designs=7, strategy="random")
        generator = DatasetGenerator(config, num_designs=2, seed=5)
        assert config.num_designs == 7 and config.seed == 0
        assert generator.config.num_designs == 2 and generator.config.seed == 5
        assert generator.config is not config

    def test_unknown_engine_rejected_early(self):
        with pytest.raises(ValueError):
            DatasetGenerator(GeneratorConfig(engine="quantum"))
        with pytest.raises(ValueError):
            DatasetGenerator(
                GeneratorConfig(fidelities=("low", "high"), engine={"high": "quantum"})
            )
        # An unregistered name in a mapping fails when the generator is
        # built, not inside a worker.
        with pytest.raises(ValueError, match="unknown engine 'iterative'"):
            DatasetGenerator(GeneratorConfig(engine={"low": "iterative"}))

    def test_typoed_engine_mapping_key_rejected(self):
        """A mapping key matching no fidelity must not fall back silently."""
        with pytest.raises(ValueError, match="match no configured fidelity"):
            DatasetGenerator(GeneratorConfig(engine={"lo": "recycled"}))
        # "*" is the documented default key and stays accepted.
        DatasetGenerator(
            GeneratorConfig(fidelities=("low", "high"), engine={"low": "recycled", "*": "direct"})
        )

    def test_engine_selection_reaches_metadata(self):
        dataset = generate_dataset(
            "bending",
            "random",
            num_designs=2,
            seed=1,
            with_gradient=False,
            device_kwargs=TINY_DEVICE_KWARGS,
            engine="recycled",
        )
        assert dataset.metadata["engine"] == {"low": "recycled"}


class TestEngineForFidelity:
    def test_passthrough_and_mapping(self):
        assert engine_for_fidelity(None, "low") is None
        assert engine_for_fidelity("direct", "high") == "direct"
        engine = DirectEngine()
        assert engine_for_fidelity(engine, "low") is engine
        mapping = {"low": "recycled", "*": "direct"}
        assert engine_for_fidelity(mapping, "low") == "recycled"
        assert engine_for_fidelity(mapping, "high") == "direct"
        assert engine_for_fidelity({"low": "recycled"}, "high") is None

    def test_invalid_type_rejected(self):
        with pytest.raises(TypeError):
            engine_for_fidelity(42, "low")


class TestShardPlanning:
    def test_layout_covers_all_designs_per_fidelity(self):
        config = GeneratorConfig(num_designs=10, shard_size=3, fidelities=("low", "high"))
        plan = plan_shards(config)
        assert len(plan) == 8  # ceil(10/3) = 4 blocks x 2 fidelities
        for fidelity in ("low", "high"):
            ids = [
                i for spec in plan if spec.fidelity == fidelity for i in spec.design_ids
            ]
            assert ids == list(range(10))
        assert [spec.index for spec in plan] == list(range(len(plan)))

    def test_layout_independent_of_workers(self):
        from dataclasses import replace

        config = GeneratorConfig(num_designs=9, shard_size=2)
        plan = plan_shards(config)
        again = plan_shards(replace(config, workers=8))
        assert [s.design_ids for s in again] == [s.design_ids for s in plan]
        assert [s.rng_seed for s in again] == [s.rng_seed for s in plan]

    def test_per_shard_rng_streams_distinct_and_seed_dependent(self):
        config = GeneratorConfig(num_designs=8, shard_size=2)
        seeds = [spec.rng_seed for spec in plan_shards(config)]
        assert len(set(seeds)) == len(seeds)
        from dataclasses import replace

        reseeded = [spec.rng_seed for spec in plan_shards(replace(config, seed=1))]
        assert reseeded != seeds

    def test_fingerprint_tracks_design_content_and_engine(self):
        config = GeneratorConfig(num_designs=2, strategy="random")
        spec = plan_shards(config)[0]
        densities = [np.zeros((4, 4)), np.ones((4, 4))]
        stages = ["random", "random"]
        base = shard_fingerprint(config, spec, densities, stages)
        assert base == shard_fingerprint(
            config, spec, [d.copy() for d in densities], stages
        )
        bumped = [densities[0], densities[1] + 1e-12]
        assert base != shard_fingerprint(config, spec, bumped, stages)
        from dataclasses import replace

        other_engine = replace(config, engine="recycled")
        assert base != shard_fingerprint(other_engine, spec, densities, stages)

    @pytest.mark.parametrize(
        "config_kwargs, expected",
        [
            ({}, "a2e452abc360e9684eab060a46a2bab47ac75cdf"),
            (
                dict(with_gradient=False, sweep=Sweep(wavelengths=(1.53, 1.57))),
                "2924b24c4dbc3653f4d8e71ca97bda72f280ab3d",
            ),
            (
                dict(
                    device_name="kerr_limiter",
                    sweep=Sweep(nonlinearity=KerrNonlinearity(chi3=1.1e8)),
                ),
                "f5c8068bd7d2adcab66f750391f0d965c07506a7",
            ),
            (
                dict(
                    device_name="kerr_limiter",
                    sweep=Sweep(
                        nonlinearity=KerrNonlinearity(chi3=1.1e8), intensities=(1.0, 2.0)
                    ),
                ),
                "910f6e2905d6664039fc5d56519a05175d0a69bb",
            ),
        ],
        ids=["linear", "wavelengths", "chi3", "chi3_intensities"],
    )
    def test_fingerprint_is_pinned(self, config_kwargs, expected):
        """Resumable artifacts are found by fingerprint: any change to the
        hashed payload orphans every shard written before it."""
        config = GeneratorConfig(**config_kwargs)
        spec = plan_shards(config, num_designs=2)[0]
        densities = [np.linspace(0.0, 1.0, 16).reshape(4, 4), np.full((4, 4), 0.5)]
        assert shard_fingerprint(config, spec, densities, ["random", "random"]) == expected


class TestShardedGeneration:
    CONFIG_KWARGS = dict(
        device_name="bending",
        strategy="random",
        num_designs=4,
        with_gradient=False,
        seed=3,
        device_kwargs=TINY_DEVICE_KWARGS,
        shard_size=2,
    )

    @staticmethod
    def _assert_bit_identical(left, right):
        from repro.data.dataset import datasets_bit_identical

        assert datasets_bit_identical(left, right)

    def test_parallel_bit_identical_to_serial(self):
        serial = DatasetGenerator(GeneratorConfig(**self.CONFIG_KWARGS, workers=1)).generate()
        parallel = DatasetGenerator(
            GeneratorConfig(**self.CONFIG_KWARGS, workers=2)
        ).generate()
        self._assert_bit_identical(serial, parallel)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(sweep=Sweep(wavelengths=(1.53, 1.57))),
            dict(
                device_name="kerr_limiter",
                num_designs=2,
                shard_size=1,
                sweep=Sweep(
                    nonlinearity=KerrNonlinearity(chi3=1.1e8), intensities=(0.5, 1.0)
                ),
            ),
        ],
        ids=["broadband", "kerr_intensities"],
    )
    def test_parallel_sweep_bit_identical_to_serial(self, overrides):
        """The sweep crosses the process boundary inside the pickled config."""
        config = GeneratorConfig(**{**self.CONFIG_KWARGS, **overrides})
        serial = DatasetGenerator(config).generate(workers=1)
        parallel = DatasetGenerator(config).generate(workers=2)
        assert len(serial) == config.num_designs * 2 * len(
            make_device(config.device_name, **TINY_DEVICE_KWARGS).specs
        )
        self._assert_bit_identical(serial, parallel)

    def test_resume_reuses_artifacts(self, tmp_path, monkeypatch):
        config = GeneratorConfig(**self.CONFIG_KWARGS, shard_dir=str(tmp_path))
        first = DatasetGenerator(config).generate()
        shard_files = sorted(tmp_path.glob("shard_*.npz"))
        assert len(shard_files) == 2  # 4 designs / shard_size 2

        import repro.data.generator as generator_module

        def explode(task):
            raise AssertionError("shard recomputed despite valid artifacts")

        monkeypatch.setattr(generator_module, "run_shard", explode)
        resumed = DatasetGenerator(config).generate()
        self._assert_bit_identical(first, resumed)

    def test_artifact_roundtrip_matches_in_memory(self, tmp_path):
        in_memory = DatasetGenerator(GeneratorConfig(**self.CONFIG_KWARGS)).generate()
        via_disk = DatasetGenerator(
            GeneratorConfig(**self.CONFIG_KWARGS, shard_dir=str(tmp_path))
        ).generate()
        self._assert_bit_identical(in_memory, via_disk)

    def test_corrupt_artifact_recomputed(self, tmp_path):
        config = GeneratorConfig(**self.CONFIG_KWARGS, shard_dir=str(tmp_path))
        first = DatasetGenerator(config).generate()
        shards = sorted(tmp_path.glob("shard_*.npz"))
        shards[0].write_bytes(b"not an npz file")  # raises ValueError on load
        # Truncated archive keeping the zip magic raises zipfile.BadZipFile.
        shards[1].write_bytes(shards[1].read_bytes()[:40])
        recovered = DatasetGenerator(config).generate()
        self._assert_bit_identical(first, recovered)

    def test_field_members_stored_rest_deflated(self, tmp_path):
        kwargs = {**self.CONFIG_KWARGS, "with_gradient": True, "num_designs": 2}
        DatasetGenerator(GeneratorConfig(**kwargs, shard_dir=str(tmp_path))).generate()
        (shard,) = tmp_path.glob("shard_*.npz")
        with zipfile.ZipFile(shard) as archive:
            members = {info.filename: info.compress_type for info in archive.infolist()}
        assert "adjgrad_0.npy" in members and "__header__.npy" in members
        for name, compression in members.items():
            stored = name.startswith(("ez_", "hx_", "hy_", "adjgrad_"))
            assert compression == (zipfile.ZIP_STORED if stored else zipfile.ZIP_DEFLATED), name

    def test_savez_compressed_shard_loads_and_resumes(self, tmp_path, monkeypatch):
        """Shards written by ``np.savez_compressed`` (all members deflated)."""
        config = GeneratorConfig(**self.CONFIG_KWARGS, shard_dir=str(tmp_path))
        first = DatasetGenerator(config).generate()
        for shard in tmp_path.glob("shard_*.npz"):
            with np.load(shard) as archive:
                arrays = {name: archive[name] for name in archive.files}
            np.savez_compressed(shard, **arrays)
            with zipfile.ZipFile(shard) as archive:
                assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}

        import repro.data.generator as generator_module

        def explode(task):
            raise AssertionError("shard recomputed despite valid artifacts")

        monkeypatch.setattr(generator_module, "run_shard", explode)
        self._assert_bit_identical(first, DatasetGenerator(config).generate())

    def test_bit_flip_in_stored_member_recomputed(self, tmp_path):
        config = GeneratorConfig(**self.CONFIG_KWARGS, shard_dir=str(tmp_path))
        first = DatasetGenerator(config).generate()
        shard = sorted(tmp_path.glob("shard_*.npz"))[0]
        with zipfile.ZipFile(shard) as archive:
            info = archive.getinfo("ez_0.npy")
        assert info.compress_type == zipfile.ZIP_STORED
        raw = bytearray(shard.read_bytes())
        # Local file header: 30 fixed bytes, then the name and extra field.
        offset = info.header_offset
        name_len, extra_len = struct.unpack("<HH", raw[offset + 26 : offset + 30])
        data_start = offset + 30 + name_len + extra_len
        raw[data_start + info.file_size // 2] ^= 0x01
        shard.write_bytes(bytes(raw))
        assert try_load_shard(shard) is None  # zip CRC-32 mismatch
        self._assert_bit_identical(first, DatasetGenerator(config).generate())

    def test_engine_instances_rejected_for_parallel_runs(self):
        config = GeneratorConfig(
            **self.CONFIG_KWARGS, engine=DirectEngine(), workers=2
        )
        generator = DatasetGenerator(config)
        with pytest.raises(ValueError):
            generator.generate()

    def test_unknown_array_backend_rejected_at_config_time(self, capsys):
        # There is no array-backend knob: old configs and command lines fail
        # with the natural dataclass / argparse errors.
        with pytest.raises(TypeError, match="backend"):
            GeneratorConfig(**self.CONFIG_KWARGS, backend="numpy")
        with pytest.raises(SystemExit) as excinfo:
            generator_main(["--backend", "numpy"])
        assert excinfo.value.code == 2
        assert "--backend" in capsys.readouterr().err


class TestShardWriter:
    @pytest.fixture(scope="class")
    def labels(self, tiny_bend):
        rng = np.random.default_rng(5)
        return [
            label
            for _ in range(2)
            for label in extract_labels_batch(
                tiny_bend, rng.uniform(0.0, 1.0, tiny_bend.design_shape), stage="test"
            )
        ]

    def test_same_labels_write_the_same_bytes(self, labels, tmp_path, monkeypatch):
        ids = list(range(len(labels)))
        first = save_shard(tmp_path / "first.npz", labels, ids, fingerprint="f")
        # A day later: no member may carry its write time.
        localtime = time.localtime
        monkeypatch.setattr(
            time, "localtime", lambda secs=None: localtime((secs or time.time()) + 86400)
        )
        second = save_shard(tmp_path / "second.npz", labels, ids, fingerprint="f")
        assert first.read_bytes() == second.read_bytes()

    def test_deflated_members_round_trip_bit_identically(self, labels, tmp_path):
        path = save_shard(tmp_path / "shard.npz", labels, [7, 9], fingerprint="f")
        with zipfile.ZipFile(path) as archive:
            deflated = {
                info.filename.split("_")[0]
                for info in archive.infolist()
                if info.compress_type == zipfile.ZIP_DEFLATED
            }
        assert {"density", "eps", "source"} <= deflated
        loaded, design_ids = load_shard(path, expected_fingerprint="f")
        assert design_ids == [7, 9]
        for got, want in zip(loaded, labels, strict=True):
            for field in ("density", "eps_r", "source"):
                assert getattr(got, field).dtype == getattr(want, field).dtype
                assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
            assert got.transmissions == want.transmissions
            assert got.figure_of_merit == want.figure_of_merit

    def test_failed_write_leaves_no_temp_file(self, labels, tmp_path, monkeypatch):
        def failing_write(path, arrays):
            path.write_bytes(b"partial")
            raise OSError("injected write failure")

        monkeypatch.setattr(shards_module, "_write_npz", failing_write)
        with pytest.raises(OSError, match="injected write failure"):
            save_shard(tmp_path / "shard.npz", labels, list(range(len(labels))), "f")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="per-thread nice is Linux's")
    def test_writer_thread_runs_at_lowest_cpu_priority(self, tmp_path, monkeypatch):
        def priority():
            return os.getpriority(os.PRIO_PROCESS, threading.get_native_id())

        caller = priority()
        seen = []
        monkeypatch.setattr(
            shards_module, "save_shard", lambda *args, **kwargs: seen.append(priority())
        )
        task = SimpleNamespace(
            shard_path=tmp_path / "shard.npz", fingerprint="f", spec=SimpleNamespace(index=0)
        )
        with ShardWriter() as writer:
            writer.submit(task, [], [])
            assert writer.wait() == []
        assert seen == [19]
        assert priority() == caller


class TestBackgroundShardWrites:
    """In-process shards hand their artifacts to one background writer thread."""

    CONFIG_KWARGS = {
        **TestShardedGeneration.CONFIG_KWARGS,
        "with_gradient": True,
        "max_retries": 1,
    }

    @staticmethod
    def _artifacts(shard_dir: Path) -> dict[str, bytes]:
        """Every file in ``shard_dir``; the names must all be finished shards."""
        files = {path.name: path.read_bytes() for path in shard_dir.iterdir()}
        assert all(name.startswith("shard_") for name in files), sorted(files)
        return files

    def test_serial_artifacts_match_save_shard_and_pooled_run(self, tmp_path, monkeypatch):
        pooled_dir, serial_dir = tmp_path / "pooled", tmp_path / "serial"
        DatasetGenerator(
            GeneratorConfig(**self.CONFIG_KWARGS, shard_dir=str(pooled_dir))
        ).generate(workers=2)

        real_run_shard, real_write = generator_module.run_shard, shards_module._write_npz
        returned, writer_threads = {}, set()

        def recording_run_shard(task):
            output = real_run_shard(task)
            returned[task.spec.index] = (task, output)
            return output

        def tracking_write(path, arrays):
            writer_threads.add(threading.current_thread())
            real_write(path, arrays)

        monkeypatch.setattr(generator_module, "run_shard", recording_run_shard)
        monkeypatch.setattr(shards_module, "_write_npz", tracking_write)
        threads = threading.active_count()
        DatasetGenerator(
            GeneratorConfig(**self.CONFIG_KWARGS, shard_dir=str(serial_dir))
        ).generate(workers=1)
        serial = self._artifacts(serial_dir)  # all durable once generate returns
        assert threading.active_count() == threads
        (writer,) = writer_threads
        assert writer is not threading.current_thread() and not writer.is_alive()

        assert len(serial) == len(returned) == 2
        assert serial == self._artifacts(pooled_dir)
        for task, (labels, design_ids) in returned.values():
            direct = save_shard(tmp_path / "direct.npz", labels, design_ids, task.fingerprint)
            assert direct.read_bytes() == serial[Path(task.shard_path).name]

    def test_failed_write_is_retried_from_memory(self, tmp_path, monkeypatch):
        reference = DatasetGenerator(GeneratorConfig(**self.CONFIG_KWARGS)).generate()
        real_write, calls = shards_module._write_npz, []

        def flaky_write(path, arrays):
            calls.append(path)
            if len(calls) == 1:
                path.write_bytes(b"partial")
                raise OSError("injected write failure")
            real_write(path, arrays)

        monkeypatch.setattr(shards_module, "_write_npz", flaky_write)
        threads = threading.active_count()
        generator = DatasetGenerator(
            GeneratorConfig(**self.CONFIG_KWARGS, shard_dir=str(tmp_path))
        )
        dataset = generator.generate(workers=1)
        assert threading.active_count() == threads
        assert len(calls) == 3  # shard 0 twice, then shard 1
        assert generator.last_task_report.attempts == {0: 1, 1: 1}  # nothing re-solved
        assert datasets_bit_identical(reference, dataset)
        artifacts = sorted(tmp_path.iterdir())
        assert len(self._artifacts(tmp_path)) == 2
        assert all(try_load_shard(path) is not None for path in artifacts)

    def test_write_failing_every_attempt_names_its_shard(self, tmp_path, monkeypatch):
        real_write, targets = shards_module._write_npz, []

        def failing_write(path, arrays):
            if path not in targets:
                targets.append(path)
            if len(targets) > 1 and path == targets[1]:  # shard 1's temp file
                path.write_bytes(b"partial")
                raise OSError("injected write failure")
            real_write(path, arrays)

        monkeypatch.setattr(shards_module, "_write_npz", failing_write)
        config = GeneratorConfig(
            **{**self.CONFIG_KWARGS, "num_designs": 6}, shard_dir=str(tmp_path)
        )
        threads = threading.active_count()
        with pytest.raises(ShardExecutionError, match="shard 1 ") as excinfo:
            DatasetGenerator(config).generate(workers=1)
        assert threading.active_count() == threads
        ((task, failure),) = excinfo.value.shard_failures
        assert task.spec.index == 1
        assert failure.attempts == 2  # the first write and max_retries=1 more
        assert isinstance(failure.error, OSError)
        assert excinfo.value.report.attempts == {0: 1, 1: 1, 2: 1}  # nothing re-solved
        assert not Path(task.shard_path).exists()
        siblings = self._artifacts(tmp_path)
        assert len(siblings) == 2
        assert all(try_load_shard(tmp_path / name) is not None for name in siblings)


class TestSweep:
    @pytest.mark.parametrize("axis", ["wavelengths", "intensities"])
    def test_empty_axis_raises(self, axis):
        """An empty axis used to label nothing and return 0 samples.

        ``extract_labels_batch`` and ``DatasetGenerator`` take their axes only
        as a ``Sweep``, so rejecting an empty axis here covers both.
        """
        kwargs = {axis: ()}
        if axis == "intensities":
            kwargs["nonlinearity"] = KerrNonlinearity(chi3=1.1e8)
        with pytest.raises(ValueError, match=f"{axis} is empty"):
            Sweep(**kwargs)

    def test_axes_normalize_to_float_tuples(self):
        sweep = Sweep(wavelengths=[1.55, np.float64(1.56)])
        assert sweep.wavelengths == (1.55, 1.56)
        assert all(type(w) is float for w in sweep.wavelengths)
        assert Sweep(wavelengths=1.55).wavelengths == (1.55,)
        assert Sweep().stamp() == {}

    @pytest.mark.parametrize(
        "nonlinearity",
        [KerrNonlinearity(), KerrNonlinearity(chi3=1.1e8, rtol=1e-10), "kerr"],
        ids=["device_chi3", "solver_setting", "not_kerr"],
    )
    def test_generator_rejects_kerr_settings_beyond_chi3(self, nonlinearity):
        """Fingerprints stamp chi3 alone, so nothing else may vary."""
        with pytest.raises(ValueError, match="chi3 alone"):
            DatasetGenerator(
                GeneratorConfig(
                    device_name="kerr_limiter", sweep=Sweep(nonlinearity=nonlinearity)
                )
            )


class TestGeneratorCLI:
    def test_engine_argument_parsing(self):
        assert _parse_engine(None) is None
        assert _parse_engine("direct") == "direct"
        assert _parse_engine("low=recycled,high=direct") == {
            "low": "recycled",
            "high": "direct",
        }
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_engine("low=")

    def test_main_generates_and_saves(self, tmp_path):
        import json

        output = tmp_path / "cli_dataset.npz"
        exit_code = generator_main(
            [
                "--device",
                "bending",
                "--strategy",
                "random",
                "--num-designs",
                "2",
                "--no-gradient",
                "--engine",
                "direct",
                "--workers",
                "1",
                "--device-kwargs",
                json.dumps(TINY_DEVICE_KWARGS),
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        loaded = PhotonicDataset.load(output)
        assert len(loaded) == 2
        assert loaded.metadata["engine"] == {"low": "direct"}

    def test_main_wavelength_sweep(self, tmp_path):
        import json

        output = tmp_path / "broadband.npz"
        exit_code = generator_main(
            [
                "--device",
                "bending",
                "--strategy",
                "random",
                "--num-designs",
                "1",
                "--no-gradient",
                "--wavelengths",
                "1.53",
                "1.57",
                "--device-kwargs",
                json.dumps(TINY_DEVICE_KWARGS),
                "--output",
                str(output),
            ]
        )
        assert exit_code == 0
        loaded = PhotonicDataset.load(output)
        assert loaded.metadata["wavelengths"] == [1.53, 1.57]
        specs = make_device("bending", **TINY_DEVICE_KWARGS).specs
        assert len(loaded) == 2 * len(specs)

    def test_main_rejects_intensities_without_chi3(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            generator_main(
                ["--intensities", "1.0", "2.0", "--output", str(tmp_path / "x.npz")]
            )
        assert excinfo.value.code == 2
        assert "intensities" in capsys.readouterr().err
        assert not (tmp_path / "x.npz").exists()


class TestAnalysis:
    def test_histogram_fractions_sum_to_one(self, tiny_dataset):
        fractions, edges = transmission_histogram(tiny_dataset, bins=5)
        assert fractions.sum() == pytest.approx(1.0)
        assert len(edges) == 6

    def test_histogram_invalid_kind(self, tiny_dataset):
        with pytest.raises(ValueError):
            transmission_histogram(tiny_dataset, value="loss")

    def test_balance_bounds(self, tiny_dataset):
        balance = distribution_balance(tiny_dataset)
        assert 0.0 <= balance <= 1.0

    def test_fom_coverage_monotone_in_threshold(self, tiny_dataset):
        assert fom_coverage(tiny_dataset, 0.1) >= fom_coverage(tiny_dataset, 0.9)

    def test_pattern_embedding_shapes(self, tiny_dataset):
        embedding = pattern_embedding({"a": tiny_dataset, "b": tiny_dataset})
        assert embedding["a"].shape == (len(tiny_dataset), 2)
        assert embedding["b"].shape == (len(tiny_dataset), 2)

    def test_pattern_embedding_requires_data(self):
        with pytest.raises(ValueError):
            pattern_embedding({})
