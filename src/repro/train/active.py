"""Closed-loop active learning: train → evaluate → acquire → regenerate.

This module closes the multi-fidelity loop the MAPS infrastructure is built
for: cheap tiers and the neural surrogate *propose*, exact solves *correct*,
and the dataset grows where the model is weakest.  One
:class:`ActiveLearningLoop` round is

1. **train** — the surrogate trains on the current shard directory through a
   streaming :class:`~repro.data.loader.ShardDataLoader` (per-sample
   acquisition weights and fidelity curricula included);
2. **evaluate** — validation error on a fixed exact-labelled hold-out set;
3. **acquire** — a pool of candidate designs is drawn and *scored*:
   ``"disagreement"`` promotes the current model to a checkpoint-backed
   ``neural:<ckpt>`` engine and measures how far its fields deviate from
   the physics tier's (places where the physics and the surrogate disagree
   are places the exact solver has something to teach);
   ``"residual"`` scores the Maxwell-equation residual of the surrogate's own
   prediction (no extra solve at all); ``"random"`` is the baseline;
4. **regenerate** — only the top-k candidates are labelled at the *exact*
   tier by the :class:`~repro.data.generator.DatasetGenerator`, appended to
   the same shard directory under fresh ``design_id``s
   (``design_id_offset``), and folded into the loader with
   :meth:`~repro.data.loader.ShardDataLoader.refresh` — pre-existing samples
   stay byte-identical, so the model never sees its old data move.

The exact-solve budget is the loop's currency: :class:`RoundRecord` tracks
how many exact-tier labels each strategy spent to reach its validation error,
which is what ``benchmarks/bench_active.py`` compares against random
acquisition.

Examples
--------
::

    config = GeneratorConfig(
        device_name="bending", strategy="random", num_designs=8,
        fidelities=("high",), engine="direct", shard_dir="active_shards",
        with_gradient=False,
    )
    loop = ActiveLearningLoop(
        model=make_model("fno", width=8, modes=(3, 3), depth=2, rng=0),
        model_name="fno",
        model_kwargs=dict(width=8, modes=(3, 3), depth=2, rng=0),
        generator_config=config,
        val_set=val_dataset,                       # exact-labelled hold-out
        config=ActiveLearningConfig(rounds=3, acquire_per_round=4),
    )
    records = loop.run()
    records[-1].val_n_l2, records[-1].exact_labels
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.data.loader import ShardDataLoader
from repro.data.sampling import DesignSample, make_sampler
from repro.data.shards import engine_for_fidelity
from repro.devices.factory import make_device
from repro.fdfd.engine import resolve_engine
from repro.train.trainer import Trainer
from repro.utils.numerics import normalized_l2

__all__ = [
    "ActiveLearningConfig",
    "RoundRecord",
    "ActiveLearningLoop",
    "score_candidates",
]

ACQUISITIONS = ("disagreement", "residual", "random")


@dataclass
class ActiveLearningConfig:
    """Knobs of one active-learning run.

    ``candidates_per_round`` designs are proposed per round and only the
    ``acquire_per_round`` best are labelled exactly — the ratio between the
    two is the acquisition pressure.  ``acquisition`` picks the score
    (``"disagreement"``, ``"residual"`` or the ``"random"`` baseline);
    ``cheap_engine`` is the tier the disagreement score solves against (the
    exact ``"direct"`` tier by default), resolved on the device's design
    region.
    With ``weight_by_score`` the acquired labels carry their normalized
    acquisition score as a per-sample loss weight (clipped to
    ``[1, max_weight]``), so the trainer leans into the samples the loop
    found informative.
    """

    rounds: int = 4
    candidates_per_round: int = 12
    acquire_per_round: int = 4
    epochs_per_round: int = 6
    acquisition: str = "disagreement"
    cheap_engine: str = "direct"
    weight_by_score: bool = True
    max_weight: float = 4.0
    checkpoint_name: str = "active_surrogate.npz"
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError(f"rounds must be at least 1, got {self.rounds}")
        if self.acquisition not in ACQUISITIONS:
            raise ValueError(
                f"unknown acquisition {self.acquisition!r}; "
                f"available: {list(ACQUISITIONS)}"
            )
        if self.acquire_per_round < 1:
            raise ValueError(
                f"acquire_per_round must be at least 1, got {self.acquire_per_round}"
            )
        if self.candidates_per_round < self.acquire_per_round:
            raise ValueError(
                f"candidates_per_round ({self.candidates_per_round}) must cover "
                f"acquire_per_round ({self.acquire_per_round})"
            )
        if self.max_weight < 1.0:
            raise ValueError(f"max_weight must be at least 1, got {self.max_weight}")


@dataclass
class RoundRecord:
    """What one train→evaluate→acquire round did (for benchmarks and tests)."""

    round_index: int
    #: Exact-tier labels in the training pool *when this round trained* — the
    #: label budget spent up to (and including) this round's training data.
    exact_labels: int
    num_samples: int
    train_loss: float
    #: Validation error after this round's training: N-L2 for field targets,
    #: MAE for transmission targets (NaN when the loop has no val_set).
    val_n_l2: float
    #: Designs labelled at the exact tier after training (empty on the final
    #: round, which only evaluates).
    acquired_design_ids: list[int] = field(default_factory=list)
    acquisition_scores: list[float] = field(default_factory=list)
    sample_weights: list[float] = field(default_factory=list)
    #: Cheap-tier solves the acquisition scoring itself spent this round.
    cheap_solves: int = 0


def _group_specs(specs):
    """Group target specs by ``(wavelength, state)`` — one Simulation each."""
    groups: dict[tuple, list] = {}
    for spec in specs:
        key = (spec.wavelength, tuple(sorted((spec.state or {}).items())))
        groups.setdefault(key, []).append(spec)
    return groups


def score_candidates(
    device,
    candidates: list[DesignSample],
    neural_engine,
    acquisition: str = "disagreement",
    cheap_engine=None,
) -> tuple[np.ndarray, int]:
    """Score candidate designs by informativeness; higher = label it first.

    ``"disagreement"`` solves every candidate with the surrogate engine *and*
    the cheap tier and returns the mean normalized field distance — one cheap
    solve per (candidate, excitation), no exact solves.  ``"residual"`` needs
    no solver at all: it plugs the surrogate's predicted field back into the
    Maxwell operator and scores the relative residual.  Returns the score
    array and the number of cheap-tier solves spent.
    """
    if acquisition not in ("disagreement", "residual"):
        raise ValueError(
            f"score_candidates handles 'disagreement' and 'residual', "
            f"got {acquisition!r}"
        )
    if acquisition == "disagreement" and cheap_engine is None:
        raise ValueError("disagreement scoring needs the cheap engine")

    groups = _group_specs(device.specs)
    scores = np.zeros(len(candidates))
    cheap_solves = 0
    for index, candidate in enumerate(candidates):
        per_spec: list[float] = []
        for (wavelength, state), specs in groups.items():
            excitations = [(s.source_port, s.source_mode) for s in specs]
            sim_neural = device.simulation(
                candidate.density,
                wavelength=wavelength,
                state=dict(state),
                engine=neural_engine,
            )
            neural_results = sim_neural.solve_multi(excitations)
            if acquisition == "disagreement":
                sim_cheap = device.simulation(
                    candidate.density,
                    wavelength=wavelength,
                    state=dict(state),
                    engine=cheap_engine,
                )
                cheap_results = sim_cheap.solve_multi(excitations)
                cheap_solves += len(excitations)
                per_spec.extend(
                    normalized_l2(n.ez, c.ez)
                    for n, c in zip(neural_results, cheap_results)
                )
            else:
                # Relative Maxwell residual of the surrogate's own field —
                # the simulation owns the operator/RHS convention.
                per_spec.extend(
                    sim_neural.maxwell_residual(result) for result in neural_results
                )
        scores[index] = float(np.mean(per_spec))
    return scores, cheap_solves


class ActiveLearningLoop:
    """Alternate surrogate training with targeted exact-tier labelling.

    Parameters
    ----------
    model:
        The surrogate being trained (modified in place across rounds — each
        round continues from the previous round's weights).
    model_name, model_kwargs:
        Model-zoo identity of ``model``; needed to promote it to a
        checkpoint-backed ``neural:<ckpt>`` engine for disagreement scoring.
    generator_config:
        The *seed* generation run: must set ``shard_dir`` (the growing
        directory) and order ``fidelities`` cheap → exact; the last fidelity
        is the exact tier acquisitions are labelled at.
    val_set:
        Fixed exact-labelled hold-out (dataset or loader) the loop's
        validation error is measured on.  Never grown, never trained on.
    config:
        The :class:`ActiveLearningConfig` (defaults are benchmark-sized).
    trainer_kwargs:
        Extra :class:`~repro.train.trainer.Trainer` keywords applied every
        round (``batch_size``, ``learning_rate``, ``curriculum=...``, ...).
    """

    def __init__(
        self,
        model,
        model_name: str,
        model_kwargs: dict,
        generator_config: GeneratorConfig,
        val_set,
        config: ActiveLearningConfig | None = None,
        trainer_kwargs: dict | None = None,
    ):
        if generator_config.shard_dir is None:
            raise ValueError(
                "active learning needs a persistent shard_dir in the "
                "generator config (the loop grows it between rounds)"
            )
        self.model = model
        self.model_name = model_name
        self.model_kwargs = dict(model_kwargs)
        self.generator_config = generator_config
        self.val_set = val_set
        self.config = config if config is not None else ActiveLearningConfig()
        self.trainer_kwargs = dict(trainer_kwargs or {})
        self.exact_fidelity = generator_config.fidelities[-1]
        self.records: list[RoundRecord] = []
        self.loader: ShardDataLoader | None = None
        #: The servable ``"neural:<ckpt path>"`` engine name of the finished
        #: loop; None until :meth:`run` completes.
        self.checkpoint: str | None = None
        self._next_design_id = 0
        self._sampler = make_sampler(
            generator_config.strategy, **(generator_config.strategy_kwargs or {})
        )
        self._device = make_device(
            generator_config.device_name,
            fidelity=self.exact_fidelity,
            **(generator_config.device_kwargs or {}),
        )
        self._cheap_engine = (
            resolve_engine(
                self.config.cheap_engine, design_region=self._device.geometry.design_slice
            )
            if self.config.acquisition == "disagreement"
            else None
        )

    # -- loop pieces -------------------------------------------------------------
    def _ensure_seed_data(self) -> None:
        """Generate (or resume) the seed shards and open the loader."""
        if self.loader is not None:
            return
        DatasetGenerator(self.generator_config).generate()
        self.loader = ShardDataLoader.from_directory(
            self.generator_config.shard_dir,
            fidelities=self.generator_config.fidelities,
        )
        self._next_design_id = int(self.loader.design_id_array().max()) + 1

    def _train_round(self, round_index: int) -> Trainer:
        trainer = Trainer(
            self.model,
            data=self.loader,
            test_set=self.val_set,
            epochs=self.config.epochs_per_round,
            seed=self.config.seed + round_index,
            **self.trainer_kwargs,
        )
        trainer.train()
        return trainer

    def _promote(self) -> str:
        """Checkpoint the current model and return its ``neural:<ckpt>`` name."""
        # Imported lazily: repro.surrogate itself imports repro.train (the
        # neural engine wraps the trainer's predict), so a module-level
        # import here would close an import cycle.
        from repro.surrogate.checkpoint import (
            CheckpointMeta,
            dataset_fingerprint,
            save_checkpoint,
        )

        path = Path(self.generator_config.shard_dir) / self.config.checkpoint_name
        save_checkpoint(
            path,
            self.model,
            CheckpointMeta(
                model_name=self.model_name,
                model_kwargs=self.model_kwargs,
                field_scale=self.loader.field_scale,
                dataset_fingerprint=dataset_fingerprint(self.loader),
                extras={"active_rounds": len(self.records)},
            ),
        )
        return f"neural:{path}"

    def _propose(self, round_index: int) -> list[DesignSample]:
        """Draw this round's candidate pool from an independent RNG stream."""
        rng = np.random.default_rng(
            np.random.SeedSequence([self.generator_config.seed, 7_919, round_index])
        )
        return self._sampler.sample(
            self._device, self.config.candidates_per_round, rng=rng
        )

    def _select(
        self, candidates: list[DesignSample], scores: np.ndarray
    ) -> list[DesignSample]:
        """Top-k candidates, acquisition weights attached.

        Non-finite scores (a diverged surrogate produces NaN/inf
        disagreement) rank first — the model is maximally wrong there — but
        their *weight* is clamped to ``max_weight``: a NaN must never be
        stamped into a persisted shard, where it would poison every later
        training run on the directory.
        """
        k = self.config.acquire_per_round
        ranked = np.where(np.isfinite(scores), scores, np.inf)
        top = np.argsort(ranked)[::-1][:k]
        if self.config.weight_by_score:
            finite = scores[np.isfinite(scores)]
            reference = float(np.median(finite)) if finite.size else 0.0
            weights = [
                float(np.clip(scores[i] / max(reference, 1e-300), 1.0, self.config.max_weight))
                if np.isfinite(scores[i])
                else self.config.max_weight
                for i in top
            ]
        else:
            weights = [1.0] * len(top)
        return [
            replace(candidates[i], weight=weight) for i, weight in zip(top, weights)
        ]

    def _acquire(self, round_index: int) -> tuple[list[DesignSample], np.ndarray, int]:
        candidates = self._propose(round_index)
        if self.config.acquisition == "random":
            # The baseline draws k uniformly from the same pool — no
            # information used to pick among them.  (Not candidates[:k]: the
            # samplers order their pools, e.g. trajectory sweep first, so a
            # prefix would be a stratified heuristic, not a random baseline.)
            rng = np.random.default_rng(
                np.random.SeedSequence([self.generator_config.seed, 104_729, round_index])
            )
            picks = rng.choice(
                len(candidates), size=self.config.acquire_per_round, replace=False
            )
            scores = np.zeros(len(candidates))
            return [candidates[i] for i in picks], scores, 0
        engine_name = self._promote()
        scores, cheap_solves = score_candidates(
            self._device,
            candidates,
            resolve_engine(engine_name),
            acquisition=self.config.acquisition,
            cheap_engine=self._cheap_engine,
        )
        return self._select(candidates, scores), scores, cheap_solves

    def _label(self, designs: list[DesignSample], round_index: int) -> list[int]:
        """Label ``designs`` at the exact tier, appended to the shard dir."""
        exact_engine = engine_for_fidelity(
            self.generator_config.engine, self.exact_fidelity
        )
        config = replace(
            self.generator_config,
            fidelities=(self.exact_fidelity,),
            engine=exact_engine,
            num_designs=len(designs),
            design_id_offset=self._next_design_id,
            # A fresh stream per round: the seed only namespaces shard RNG,
            # the designs themselves are supplied explicitly below.
            seed=self.generator_config.seed + 100_003 * (round_index + 1),
        )
        DatasetGenerator(config).generate(designs=designs)
        acquired = list(
            range(self._next_design_id, self._next_design_id + len(designs))
        )
        self._next_design_id += len(designs)
        return acquired

    # -- the loop ----------------------------------------------------------------
    def run(self) -> list[RoundRecord]:
        """Run all rounds; returns one :class:`RoundRecord` per round.

        Every round trains and evaluates; every round but the last acquires
        and refreshes, so the final record reports the validation error of
        the model trained on everything the loop chose to label.  The final
        model is always promoted: :attr:`checkpoint` names the servable
        ``neural:<ckpt>`` engine of the finished loop.
        """
        self._ensure_seed_data()
        for round_index in range(self.config.rounds):
            trainer = self._train_round(round_index)
            # The trainer already evaluated val_set (its test_set) after the
            # final epoch; reuse that instead of a second full sweep.  Field
            # targets report N-L2, transmission targets MAE.
            final = trainer.history.final()
            val_n_l2 = float(
                final.get("test_n_l2", final.get("test_mae", float("nan")))
            )
            fidelities = self.loader.fidelity_array()
            record = RoundRecord(
                round_index=round_index,
                exact_labels=int(np.sum(fidelities == self.exact_fidelity)),
                num_samples=len(self.loader),
                train_loss=float(final["train_loss"]),
                val_n_l2=val_n_l2,
            )
            if round_index < self.config.rounds - 1:
                designs, scores, cheap_solves = self._acquire(round_index)
                record.acquired_design_ids = self._label(designs, round_index)
                record.acquisition_scores = [float(s) for s in scores]
                record.sample_weights = [float(d.weight) for d in designs]
                record.cheap_solves = cheap_solves
                self.loader.refresh()
            self.records.append(record)
        self.checkpoint = self._promote()
        return self.records
