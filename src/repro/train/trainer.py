"""Training loop for the surrogate models.

The trainer consumes either an in-memory
:class:`~repro.data.dataset.PhotonicDataset` (produced with device-level
splitting) or a streaming :class:`~repro.data.loader.ShardDataLoader` over
shard artifacts — the ``data=`` seam.  Both paths are bit-identical for the
same seed: the loader consumes the random stream exactly like the dataset and
yields byte-identical batches, so loss curves do not depend on which one feeds
the loop.

Multi-fidelity runs attach a :class:`~repro.train.curriculum.Curriculum`:
each epoch then draws fidelity-homogeneous batches according to the stage's
sampling fractions, scales each batch's loss by the stage's per-fidelity
weight, and records the per-fidelity mix in the history.

Field-prediction and scalar-regression targets, data-driven and
physics-augmented losses, cosine learning-rate schedules and per-epoch
evaluation work as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.data.dataset import split_shape_runs
from repro.nn import Adam, CosineSchedule, Module
from repro.train.curriculum import Curriculum, make_curriculum
from repro.train.losses import MSELoss, NormalizedL2Loss
from repro.utils.numerics import normalized_l2
from repro.utils.rng import get_rng


@dataclass
class TrainingHistory:
    """Per-epoch training curves."""

    epochs: list[dict] = field(default_factory=list)

    def append(self, record: dict) -> None:
        self.epochs.append(record)

    def __len__(self) -> int:
        return len(self.epochs)

    def final(self) -> dict:
        if not self.epochs:
            raise ValueError("history is empty")
        return self.epochs[-1]

    def curve(self, key: str) -> np.ndarray:
        """The per-epoch values of a scalar record key, NaN where absent.

        Curriculum runs produce *ragged* records (a fidelity absent from an
        epoch's stage records no metrics for that epoch), so missing entries
        become NaN instead of being silently dropped — the returned array
        always has one value per epoch, aligned across keys.
        """
        return np.array(
            [e[key] if key in e else float("nan") for e in self.epochs], dtype=float
        )


class Trainer:
    """Train a surrogate model on a photonic dataset or shard stream.

    Parameters
    ----------
    model:
        Any :class:`repro.nn.Module` following the model-zoo interface.
    train_set, test_set:
        Datasets produced by :func:`repro.data.dataset.split_dataset`, or
        :class:`~repro.data.loader.ShardDataLoader` instances streaming shard
        artifacts.
    data:
        Alias seam for ``train_set`` (keyword-only, mutually exclusive):
        emphasizes that the trainer accepts any batch source — an in-memory
        dataset (unchanged behavior) or a streaming loader.
    target:
        ``"field"`` for field-prediction models (N-L2 loss on ``Ez``) or
        ``"transmission"`` for black-box scalar regression (MSE loss).
    curriculum:
        Optional multi-fidelity schedule — a
        :class:`~repro.train.curriculum.Curriculum` instance or a name
        (``"warmup"``, ``"mixed"``, ``"finetune"``, ``"adaptive"``; the
        fidelity order is inferred from the data).  None trains on everything
        every epoch.
    learning_rate, weight_decay, batch_size, epochs:
        The usual optimization hyper-parameters.

    Notes
    -----
    If the data source carries non-uniform per-sample weights
    (``sample_weight_array()``, stamped by active-learning acquisition), each
    batch's loss becomes the weighted mean of the per-sample losses — heavily
    weighted samples pull harder on every gradient step.

    Examples
    --------
    Stream shard artifacts into a curriculum-scheduled training run::

        loader = ShardDataLoader.from_directory("shards", fidelities=("low", "high"))
        train, test = loader.split(0.8, rng=0)
        trainer = Trainer(
            make_model("fno", width=16, modes=(6, 6), depth=3, rng=0),
            data=train,
            test_set=test,
            curriculum="adaptive",
            epochs=30,
        )
        history = trainer.train()
        history.curve("test_n_l2")   # one value per epoch, NaN-padded
    """

    def __init__(
        self,
        model: Module,
        train_set=None,
        test_set=None,
        target: str = "field",
        learning_rate: float = 2e-3,
        weight_decay: float = 0.0,
        batch_size: int = 8,
        epochs: int = 30,
        loss=None,
        seed: int = 0,
        curriculum: Curriculum | str | None = None,
        data=None,
    ):
        if target not in ("field", "transmission"):
            raise ValueError(f"target must be 'field' or 'transmission', got {target!r}")
        if data is not None and train_set is not None:
            raise ValueError("pass either train_set or data, not both")
        train_set = data if data is not None else train_set
        if train_set is None:
            raise ValueError("a training dataset or loader is required")
        if len(train_set) == 0:
            raise ValueError("training set is empty")
        self.model = model
        self.train_set = train_set
        self.test_set = test_set
        self.target = target
        self.batch_size = batch_size
        self.epochs = epochs
        self.loss = loss if loss is not None else (NormalizedL2Loss() if target == "field" else MSELoss())
        self.optimizer = Adam(model.parameters(), lr=learning_rate, weight_decay=weight_decay)
        self.schedule = CosineSchedule(self.optimizer, total_epochs=max(epochs, 1))
        self.rng = get_rng(seed)
        self.history = TrainingHistory()
        if isinstance(curriculum, str):
            curriculum = make_curriculum(curriculum, fidelities=self._data_fidelities())
        if curriculum is not None:
            # A fidelity the curriculum does not know would be silently
            # dropped from every epoch — the same mistake ShardDataLoader
            # rejects for its fidelity order, rejected here for the same
            # reason.  (The reverse — curriculum tiers absent from the data —
            # is fine: restricted views legitimately hold a subset.)
            unknown = set(self._data_fidelities()) - set(curriculum.fidelities)
            if unknown:
                raise ValueError(
                    f"training data contains fidelities {sorted(unknown)} the "
                    f"curriculum does not schedule {list(curriculum.fidelities)}; "
                    "they would be silently excluded from every epoch"
                )
        self.curriculum = curriculum
        self._bind_data_arrays()
        # Per-tier validation views: the adaptive curriculum watches
        # test_n_l2_<fid>, and multi-fidelity histories are more readable
        # with the per-tier validation curve alongside the per-tier train
        # loss.  Built once — restrict()/filter() are cheap index views.
        self._test_views: dict[str, object] = {}
        if curriculum is not None and test_set is not None and len(test_set):
            test_fidelities = tuple(
                dict.fromkeys(str(f) for f in test_set.fidelity_array())
            )
            if len(test_fidelities) > 1:
                for fidelity in test_fidelities:
                    restrict = getattr(test_set, "restrict", None)
                    if restrict is not None:
                        view = restrict(fidelities=[fidelity])
                    else:
                        view = test_set.filter(lambda s, f=fidelity: s.fidelity == f)
                    self._test_views[fidelity] = view

    def _bind_data_arrays(self) -> None:
        """Snapshot the index-aligned per-sample arrays of the training data.

        Called at construction *and* at every :meth:`train` start: a
        streaming loader can grow in between (``ShardDataLoader.refresh()``
        after an active-learning acquisition), and the snapshots must cover —
        and carry the weights of — the current index range.
        """
        # Scalar targets are precomputed once per training run: rebuilding
        # the transmission array per batch per epoch is pure overhead (the
        # labels never change during a run).
        self._transmission_targets = (
            np.asarray(self.train_set.transmission_array())
            if self.target == "transmission"
            else None
        )
        # Per-sample loss weights (active-learning acquisition scores) ride
        # in the data source; only a non-uniform vector activates the
        # weighted path, so unweighted runs stay bit-identical to before.
        weights = getattr(self.train_set, "sample_weight_array", None)
        weights = np.asarray(weights()) if weights is not None else None
        if weights is not None and np.any(weights != 1.0):
            if np.any(~(weights > 0.0)):
                raise ValueError(
                    "sample weights must be positive (muting a sample is a "
                    "data-selection decision, not a zero weight)"
                )
            if not hasattr(self.loss, "per_sample"):
                raise ValueError(
                    f"training data carries per-sample weights but the loss "
                    f"{type(self.loss).__name__} has no per_sample() method"
                )
            self._sample_weights = weights
        else:
            self._sample_weights = None

    def _data_fidelities(self) -> tuple[str, ...]:
        """Distinct fidelities of the training data, in order of appearance.

        Generated datasets and shard loaders are fidelity-major in the
        config's fidelity order, so first appearance reconstructs it.
        """
        fidelities = self.train_set.fidelity_array()
        return tuple(dict.fromkeys(str(f) for f in fidelities))

    # -- batching helpers -----------------------------------------------------------
    def _epoch_batches(self, epoch: int):
        """Yield ``(inputs, targets, indices, weight, fidelity)`` for one epoch.

        Without a curriculum this is a straight pass through
        ``train_set.batches`` (weight 1, fidelity None) — bit-identical to
        the non-curriculum trainer.  With one, the epoch's stage selects a
        per-fidelity sample pool, batches stay fidelity-homogeneous (so mixed
        cell-size datasets never stack ragged shapes) and arrive in a
        globally shuffled order with the stage's loss weight attached.
        """
        if self.curriculum is None:
            for inputs, targets, indices in self.train_set.batches(
                self.batch_size, shuffle=True, rng=self.rng
            ):
                yield inputs, targets, indices, 1.0, None
            return

        stage = self.curriculum.stage(epoch, self.epochs)
        fidelities = self.train_set.fidelity_array()
        shapes = self.train_set.sample_shapes()
        plan: list[tuple[str, float, np.ndarray]] = []
        for fidelity in self.curriculum.fidelities:
            fraction = float(stage.sample_fractions.get(fidelity, 0.0))
            if fraction <= 0.0:
                continue
            pool = np.flatnonzero(fidelities == fidelity)
            if pool.size == 0:
                continue
            if fraction < 1.0:
                count = max(1, int(round(fraction * pool.size)))
                pool = np.sort(self.rng.choice(pool, size=count, replace=False))
            order = pool.copy()
            self.rng.shuffle(order)
            weight = stage.weight(fidelity)
            for start in range(0, order.size, self.batch_size):
                # One fidelity tag can still span grids (e.g. concatenated
                # runs at different cell sizes), so chunks split at shape
                # boundaries exactly like the non-curriculum path.
                for chunk in split_shape_runs(
                    order[start : start + self.batch_size], shapes
                ):
                    plan.append((fidelity, weight, chunk))
        if not plan:
            raise ValueError(
                f"curriculum stage for epoch {epoch} selects no samples "
                f"(fidelities in data: {list(self._data_fidelities())})"
            )
        for position in self.rng.permutation(len(plan)):
            fidelity, weight, indices = plan[position]
            inputs, targets = self.train_set.gather(indices)
            yield inputs, targets, indices, weight, fidelity

    # -- training -------------------------------------------------------------------
    def train(self, verbose: bool = False) -> TrainingHistory:
        """Run the full training loop and return the history."""
        # Re-snapshot targets/weights: the data source may have grown since
        # construction (or the previous train() call).
        self._bind_data_arrays()
        for epoch in range(self.epochs):
            self.model.train()
            epoch_losses = []
            fidelity_losses: dict[str, list[float]] = {}
            fidelity_counts: dict[str, int] = {}
            fidelity_weights: dict[str, float] = {}
            for inputs, targets, indices, weight, fidelity in self._epoch_batches(epoch):
                if self.target == "transmission":
                    targets = self._transmission_targets[indices]
                prediction = self.model(Tensor(inputs))
                if self._sample_weights is not None:
                    # Weighted mean of the per-sample losses: sample weights
                    # shift each sample's pull on the gradient, the weighted
                    # normalization keeps the loss scale comparable across
                    # batches with different weight mass.
                    per_sample = self.loss.per_sample(prediction, Tensor(targets))
                    batch_weights = self._sample_weights[indices]
                    loss = (per_sample * batch_weights).sum() * (
                        1.0 / float(batch_weights.sum())
                    )
                    raw_loss = float(np.mean(per_sample.data))
                else:
                    loss = self.loss(prediction, Tensor(targets))
                    raw_loss = loss.item()
                if weight != 1.0:
                    loss = loss * weight
                self.optimizer.zero_grad()
                loss.backward()
                self.optimizer.step()
                epoch_losses.append(loss.item())
                if fidelity is not None:
                    fidelity_losses.setdefault(fidelity, []).append(raw_loss)
                    fidelity_counts[fidelity] = fidelity_counts.get(fidelity, 0) + len(indices)
                    fidelity_weights[fidelity] = weight
            self.schedule.step()

            record = {"epoch": epoch, "train_loss": float(np.mean(epoch_losses))}
            for fidelity, losses in fidelity_losses.items():
                record[f"train_loss_{fidelity}"] = float(np.mean(losses))
                record[f"samples_{fidelity}"] = int(fidelity_counts[fidelity])
                record[f"loss_weight_{fidelity}"] = float(fidelity_weights[fidelity])
            record.update({f"train_{k}": v for k, v in self.evaluate(self.train_set).items()})
            if self.test_set is not None and len(self.test_set):
                if self._test_views:
                    # The per-tier views partition the test set, so the
                    # aggregate metric is their sample-count-weighted mean —
                    # every test sample is evaluated exactly once per epoch.
                    totals: dict[str, float] = {}
                    count = 0
                    for view_fidelity, view in self._test_views.items():
                        metrics = self.evaluate(view)
                        record.update(
                            {f"test_{k}_{view_fidelity}": v for k, v in metrics.items()}
                        )
                        for key, value in metrics.items():
                            totals[key] = totals.get(key, 0.0) + value * len(view)
                        count += len(view)
                    record.update({f"test_{k}": v / count for k, v in totals.items()})
                else:
                    record.update(
                        {f"test_{k}": v for k, v in self.evaluate(self.test_set).items()}
                    )
            self.history.append(record)
            if self.curriculum is not None:
                # Feed the finished epoch back: the adaptive curriculum uses
                # the validation curve to decide tier promotions.
                self.curriculum.observe(record)
            if verbose:
                test_msg = (
                    f"  test N-L2 {record.get('test_n_l2', float('nan')):.4f}"
                    if "test_n_l2" in record
                    else ""
                )
                print(
                    f"[train] epoch {epoch:3d}  loss {record['train_loss']:.4f}"
                    f"  train N-L2 {record.get('train_n_l2', float('nan')):.4f}{test_msg}"
                )
        return self.history

    # -- inference / evaluation ------------------------------------------------------
    def predict(self, inputs: np.ndarray, batch_size: int | None = None) -> np.ndarray:
        """Model predictions for a stack of inputs (inference mode)."""
        return predict(self.model, inputs, batch_size or self.batch_size)

    def evaluate(self, dataset) -> dict[str, float]:
        """Standard metrics of the model on a dataset or loader.

        Evaluation *streams*: predictions are made batch by batch and reduced
        to per-sample scalars immediately, so evaluating a shard loader never
        materializes an O(dataset) prediction stack.  The reductions are
        per-sample (the metric definitions), so the streamed result equals
        the all-at-once computation exactly.
        """
        if dataset is None or len(dataset) == 0:
            return {}
        per_sample: list[float] = []
        if self.target == "field":
            for inputs, targets, _ in dataset.batches(self.batch_size, shuffle=False):
                predictions = predict(self.model, inputs, self.batch_size)
                per_sample.extend(
                    normalized_l2(p, t) for p, t in zip(predictions, targets)
                )
            return {"n_l2": float(np.mean(per_sample))}
        labels = (
            self._transmission_targets
            if dataset is self.train_set
            else np.asarray(dataset.transmission_array())
        )
        for inputs, _, indices in dataset.batches(self.batch_size, shuffle=False):
            predictions = predict(self.model, inputs, self.batch_size)
            per_sample.extend(
                float(abs(p - labels[i])) for p, i in zip(np.ravel(predictions), indices)
            )
        return {"mae": float(np.mean(per_sample))}


def predict(model: Module, inputs: np.ndarray, batch_size: int = 8) -> np.ndarray:
    """Run a model over a stack of inputs without building the autograd graph."""
    model.eval()
    inputs = np.asarray(inputs)
    single = inputs.ndim == 3
    if single:
        inputs = inputs[None]
    outputs = []
    with no_grad():
        for start in range(0, inputs.shape[0], batch_size):
            chunk = inputs[start : start + batch_size]
            outputs.append(model(Tensor(chunk)).data)
    result = np.concatenate(outputs, axis=0)
    return result[0] if single else result
