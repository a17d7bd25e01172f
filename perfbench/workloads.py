"""The four benchmark workloads, each a closed loop through a public entry point.

A workload has three phases, all run in one fresh process per episode:

``setup(seed, scratch)``
    Everything before the timed region: building the device and problem,
    drawing designs, ``theta0`` or datasets from ``seed``.
``run(state, mark, patcher)``
    The timed region.  ``mark()`` is called where a unit ends; a unit starts
    where the previous one ended, or at ``mark(since=...)``.  These stamps are
    the only instrumentation an untraced run carries.  Patches made through
    ``patcher`` are undone when the timed region ends.
``check(state, outcome)``
    Output checks after the timed region.  Returns ``(attempted, failed,
    work)``: units attempted, units failed and units of work done (the
    numerator of ``throughput``).

For the traced run, ``stats(state)`` reads the program's own recycling
counters and ``model_classes(state)`` names the surrogate classes whose
``__call__`` is timed.
"""

from __future__ import annotations

import math
import tempfile
import time

import numpy as np

#: Quickstart device size; fidelity "high" gives the MAPS mesh dl = 0.05.
DEVICE_SIZE = dict(domain=3.5, design_size=1.8)
BETA_SCHEDULE = {0: 4.0, 10: 8.0, 20: 16.0}
#: Largest relative Maxwell residual a label may carry.
MAX_RESIDUAL = 1e-8
#: Amplitude of the seeded perturbation added to the waveguide ``theta0``.
THETA_NOISE = 0.005


def _finite(array) -> bool:
    return array is not None and bool(np.all(np.isfinite(array)))


def _after(hook):
    """Wrapper factory that passes each call's result to ``hook``."""

    def make(original):
        def marked(*args, **kwargs):
            result = original(*args, **kwargs)
            hook(result)
            return result

        return marked

    return make


class Workload:
    name: str
    #: ``"module:Class.method"`` the user calls; the traced run's root span.
    entry_point: str

    def stats(self, state: dict) -> dict:
        return {}

    def model_classes(self, state: dict) -> list[type]:
        return []


class Label(Workload):
    """Serial ``DatasetGenerator.generate`` of random bends with gradient labels."""

    name = "label"
    entry_point = "repro.data.generator:DatasetGenerator.generate"
    designs = 64

    def setup(self, seed: int, scratch: str) -> dict:
        from repro.data.generator import DatasetGenerator, GeneratorConfig

        config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=self.designs,
            fidelities=("high",),
            with_gradient=True,
            seed=seed,
            device_kwargs=dict(DEVICE_SIZE),
            shard_dir=tempfile.mkdtemp(prefix="label-", dir=scratch),
        )
        generator = DatasetGenerator(config)
        return dict(generator=generator, designs=generator.sample_designs(), labels=[])

    def run(self, state: dict, mark, patcher) -> object:
        from repro.data.generator import ShardExecutionError

        def unit(labels):
            state["labels"].append(labels)
            mark()

        patcher.patch("repro.data.shards:extract_labels_batch", _after(unit))
        try:
            return state["generator"].generate(designs=state["designs"])
        except ShardExecutionError as error:
            return error

    def check(self, state: dict, outcome) -> tuple[int, int, int]:
        attempted = len(state["designs"])
        if isinstance(outcome, Exception):
            return attempted, attempted, 0
        failed = attempted - len(state["labels"])
        for labels in state["labels"]:
            ok = all(
                label.maxwell_residual <= MAX_RESIDUAL and _finite(label.adjoint_gradient)
                for label in labels
            )
            failed += not ok
        return attempted, failed, len(outcome)


class InverseDesign(Workload):
    """Quickstart adjoint loop on the high-fidelity bend with the recycled engine."""

    name = "invdes"
    entry_point = "repro.invdes.optimizer:AdjointOptimizer.run"
    iterations = 100

    def _problem(self, device):
        from repro.invdes import InverseDesignProblem

        return InverseDesignProblem(device, engine="recycled")

    def setup(self, seed: int, scratch: str) -> dict:
        from repro.devices import make_device
        from repro.invdes import AdjointOptimizer

        device = make_device("bending", fidelity="high", **DEVICE_SIZE)
        problem = self._problem(device)
        optimizer = AdjointOptimizer(problem, learning_rate=0.2, beta_schedule=BETA_SCHEDULE)
        theta0 = problem.initial_theta("waveguide")
        theta0 = theta0 + np.random.default_rng(seed).uniform(-THETA_NOISE, THETA_NOISE, theta0.shape)
        return dict(problem=problem, optimizer=optimizer, theta0=theta0, steps=[])

    def run(self, state: dict, mark, patcher) -> object:
        from repro.fdfd.nonlinear import ConvergenceError

        def callback(iteration, evaluation):
            state["steps"].append(_finite(evaluation.grad_theta) and math.isfinite(evaluation.fom))
            mark()

        try:
            return state["optimizer"].run(state["theta0"], iterations=self.iterations, callback=callback)
        except ConvergenceError as error:
            return error

    def check(self, state: dict, outcome) -> tuple[int, int, int]:
        steps = state["steps"]
        failed = self.iterations - sum(steps)
        if not isinstance(outcome, Exception):
            foms = outcome.foms
            improved = bool(np.all(np.isfinite(foms))) and foms[-1] > foms[0]
            failed += not improved
        return self.iterations, min(failed, self.iterations), len(steps)

    def _engine(self, state: dict):
        return state["problem"].backend.engine

    def stats(self, state: dict) -> dict:
        stats = self._engine(state).stats
        names = ("factorizations", "recycled_solves", "krylov_iterations", "fallbacks")
        return {name: getattr(stats, name) for name in names}


class RobustDesign(InverseDesign):
    """The same loop over the seven standard fabrication and operating corners."""

    name = "robust"
    iterations = 12

    def _problem(self, device):
        from repro.invdes import InverseDesignProblem, RobustInverseDesignProblem

        return RobustInverseDesignProblem(InverseDesignProblem(device, engine="recycled"))

    def _engine(self, state: dict):
        return state["problem"].base_problem.backend.engine


class Train(Workload):
    """FNO, then NeurOLight, trained from low-fidelity bend shards."""

    name = "train"
    entry_point = "repro.train.trainer:Trainer.train"
    designs = 15
    epochs = 3
    models = ("fno", "neurolight")

    def setup(self, seed: int, scratch: str) -> dict:
        from repro.data.generator import DatasetGenerator, GeneratorConfig
        from repro.data.loader import ShardDataLoader
        from repro.train import Trainer, make_model

        shard_dir = tempfile.mkdtemp(prefix="train-", dir=scratch)
        config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=self.designs,
            fidelities=("low",),
            with_gradient=False,
            seed=seed,
            device_kwargs=dict(DEVICE_SIZE),
            shard_dir=shard_dir,
        )
        DatasetGenerator(config).generate()
        loader = ShardDataLoader.from_directory(shard_dir)
        train_set, test_set = loader.split(0.8, rng=seed)
        trainers = [
            Trainer(
                make_model(name, width=16, modes=(6, 6), depth=3, rng=seed),
                data=train_set,
                test_set=test_set,
                learning_rate=3e-3,
                batch_size=6,
                epochs=self.epochs,
                seed=seed,
            )
            for name in self.models
        ]
        return dict(trainers=trainers, train_samples=len(train_set), batches=0)

    def model_classes(self, state: dict) -> list[type]:
        return [type(trainer.model) for trainer in state["trainers"]]

    def run(self, state: dict, mark, patcher) -> object:
        # A unit runs from the trainer's request for a batch to the end of
        # its optimizer step: loader wait included, epoch evaluation not.
        requested = [0.0]

        def request_stamps(batches):
            def stamped(*args, **kwargs):
                inner = batches(*args, **kwargs)
                try:
                    while True:
                        requested[0] = time.perf_counter()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        yield item
                finally:
                    inner.close()

            return stamped

        def unit(_):
            state["batches"] += 1
            mark(since=requested[0])

        trainers = state["trainers"]
        # Both trainers share one training loader.
        patcher.patch_attribute(trainers[0].train_set, "batches", request_stamps)
        for trainer in trainers:
            patcher.patch_attribute(trainer.optimizer, "step", _after(unit))
        return [trainer.train() for trainer in trainers]

    def check(self, state: dict, outcome) -> tuple[int, int, int]:
        per_model = state["batches"] // len(self.models)
        failed = 0
        for history in outcome:
            losses = history.curve("train_loss")
            if not (np.all(np.isfinite(losses)) and losses[-1] < losses[0]):
                failed += per_model
        work = len(outcome) * self.epochs * state["train_samples"]
        return state["batches"], failed, work


WORKLOADS = {cls.name: cls for cls in (Label, InverseDesign, RobustDesign, Train)}
