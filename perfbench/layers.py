"""The program's layers: which public calls are timed, and the per-layer metrics.

Each :data:`SPANS` entry names a span and the public function or method that
opens it.  ``fold`` lists ancestor spans whose time a call keeps when it runs
inside them.  The model's ``__call__`` and the workload's entry point are
added per run (see :func:`install`), since they depend on the workload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from layertrace import Patcher, Tracer


@dataclass(frozen=True)
class Span:
    name: str
    target: str
    fold: tuple[str, ...] = ()
    generator: bool = False


def _count_rhs(tracer: Tracer):
    def before(args, kwargs):
        rhs = kwargs["rhs"] if "rhs" in kwargs else args[4]
        tracer.count("fdfd.solve.rhs", len(rhs))

    return before


def _count_bytes(tracer: Tracer):
    def after(path):
        tracer.count("data.shards.bytes_written", Path(path).stat().st_size)

    return after


SPANS = (
    Span("fdfd.assemble", "repro.fdfd.engine:assemble_system_matrix"),
    Span("fdfd.factorize", "repro.fdfd.engine:FactorizationCache.get_or_build"),
    Span("fdfd.solve", "repro.fdfd.engine:DirectEngine.solve_batch"),
    Span("fdfd.solve", "repro.fdfd.engine:RecycledEngine.solve_batch"),
    # Simulation._normalization is FdfdSolver.solve's only caller; the batch
    # solve inside it belongs to the normalization, not to the forward layer.
    Span("fdfd.normalization", "repro.fdfd.solver:FdfdSolver.solve"),
    Span("fdfd.forward", "repro.fdfd.solver:FdfdSolver.solve_batch", fold=("fdfd.normalization",)),
    Span("fdfd.adjoint", "repro.fdfd.solver:FdfdSolver.solve_adjoint_batch"),
    Span("fdfd.gradient", "repro.fdfd.solver:FdfdSolver.permittivity_gradient"),
    Span("fdfd.modes", "repro.fdfd.modes:solve_slab_modes_batch"),
    Span("fdfd.modes", "repro.fdfd.monitors:Port.solve_modes"),
    Span("fdfd.monitors", "repro.fdfd.monitors:poynting_flux_through_port"),
    Span("fdfd.monitors", "repro.fdfd.monitors:mode_overlap"),
    Span("fdfd.simulation", "repro.fdfd.simulation:Simulation.solve_multi"),
    Span("invdes.adjoint", "repro.invdes.adjoint:evaluate_all_specs"),
    Span("invdes.adjoint", "repro.invdes.adjoint:evaluate_specs"),
    Span("invdes.parametrization", "repro.invdes.problem:InverseDesignProblem.evaluate"),
    Span("invdes.variation", "repro.invdes.variation:RobustInverseDesignProblem.evaluate"),
    Span("data.labels", "repro.data.labels:extract_labels_batch"),
    Span("data.shards.save", "repro.data.shards:save_shard"),
    Span("data.shards.load", "repro.data.shards:load_shard"),
    Span("data.loader", "repro.data.loader:ShardDataLoader.stream", generator=True),
    Span("data.loader", "repro.data.loader:ShardDataLoader.gather", fold=("data.loader",)),
    # Evaluation runs forward passes too; they stay in train.evaluate.
    Span("train.loss", "repro.train.losses:NormalizedL2Loss.__call__", fold=("train.evaluate",)),
    # The design chain of an inverse-design step backpropagates through the
    # parametrization; that backward pass belongs to the parametrization.
    Span("train.backward", "repro.autograd.tensor:Tensor.backward", fold=("invdes.parametrization",)),
    Span("train.step", "repro.nn.optim:Adam.step"),
    Span("train.evaluate", "repro.train.trainer:Trainer.evaluate"),
    Span("autograd.gelu", "repro.autograd.tensor:Tensor.gelu"),
    Span("autograd.spectral2d", "repro.autograd.functional:spectral_conv2d"),
    Span("autograd.spectral1d", "repro.autograd.functional:spectral_conv1d"),
)

ROOT = "workload"


def install(patcher: Patcher, tracer: Tracer, entry_point: str, model_classes=()) -> None:
    """Wrap every layer's public calls, the model classes and the entry point."""
    hooks = {
        "fdfd.solve": dict(before=_count_rhs(tracer)),
        "data.shards.save": dict(after=_count_bytes(tracer)),
    }
    for span in SPANS:
        if span.generator:
            make = tracer.wrap_generator(span.name, span.fold)
        else:
            make = tracer.wrap(span.name, span.fold, **hooks.get(span.name, {}))
        if patcher.patch(span.target, make) == 0:
            raise RuntimeError(f"no call site of {span.target} is loaded")
    for cls in model_classes:
        patcher.patch(
            f"{cls.__module__}:{cls.__qualname__}.__call__",
            tracer.wrap("train.forward", fold=("train.evaluate",)),
        )
    patcher.patch(entry_point, tracer.wrap(ROOT))


# --------------------------------------------------------------------------- #
# per-layer metrics
# --------------------------------------------------------------------------- #
#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("fdfd.assemble.calls", "count", "lower"),
    ("fdfd.assemble.self_s", "s", "lower"),
    ("fdfd.factorize.builds", "count", "lower"),
    ("fdfd.factorize.hits", "count", "higher"),
    ("fdfd.factorize.hit_ratio", "ratio", "higher"),
    ("fdfd.factorize.self_s", "s", "lower"),
    ("fdfd.solve.rhs", "count", "lower"),
    ("fdfd.solve.self_s", "s", "lower"),
    ("fdfd.recycle.refactorizations", "count", "lower"),
    ("fdfd.recycle.recycled_solves", "count", "higher"),
    ("fdfd.recycle.sweeps", "count", "lower"),
    ("fdfd.recycle.fallbacks", "count", "lower"),
    ("fdfd.recycle.ratio", "ratio", "higher"),
    ("fdfd.forward_s", "s", "lower"),
    ("fdfd.adjoint_s", "s", "lower"),
    ("fdfd.gradient.self_s", "s", "lower"),
    ("fdfd.normalization.calls", "count", "lower"),
    ("fdfd.normalization.self_s", "s", "lower"),
    ("fdfd.modes.calls", "count", "lower"),
    ("fdfd.modes.self_s", "s", "lower"),
    ("fdfd.monitors.self_s", "s", "lower"),
    ("fdfd.simulation.self_s", "s", "lower"),
    ("fdfd.result_cache.hits", "count", "higher"),
    ("fdfd.result_cache.misses", "count", "lower"),
    ("invdes.adjoint.self_s", "s", "lower"),
    ("invdes.parametrization.self_s", "s", "lower"),
    ("invdes.variation.self_s", "s", "lower"),
    ("data.labels.self_s", "s", "lower"),
    ("data.shards.save_s", "s", "lower"),
    ("data.shards.bytes_written", "bytes", "lower"),
    ("data.shards.load_s", "s", "lower"),
    ("data.loader.wait_s", "s", "lower"),
    ("train.forward_s", "s", "lower"),
    ("train.loss_s", "s", "lower"),
    ("train.backward_s", "s", "lower"),
    ("train.step_s", "s", "lower"),
    ("train.evaluate_s", "s", "lower"),
    ("autograd.gelu_s", "s", "lower"),
    ("autograd.spectral2d_s", "s", "lower"),
    ("autograd.spectral1d_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.attributed_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def episode_layer_values(tracer: Tracer, stats: dict) -> dict[str, float]:
    """Per-layer values of one traced episode.

    ``stats`` holds the program's own counters read after the timed region:
    ``cache`` (``CacheStats.as_dict()`` of the shared factorization cache),
    ``recycle`` (summed ``RecycleStats`` fields, empty without a recycled
    engine) and ``result_cache`` (``result_cache_stats()``).  Ratios are left
    to :func:`combine_layer_values`, which computes them over all episodes.
    """
    selfs = tracer.self_seconds
    cache = stats["cache"]
    recycle = stats["recycle"]
    return {
        "fdfd.assemble.calls": tracer.calls("fdfd.assemble"),
        "fdfd.assemble.self_s": selfs("fdfd.assemble"),
        "fdfd.factorize.builds": cache["factorizations"],
        "fdfd.factorize.hits": cache["hits"],
        "fdfd.factorize.self_s": selfs("fdfd.factorize"),
        "fdfd.solve.rhs": tracer.counters.get("fdfd.solve.rhs", 0),
        "fdfd.solve.self_s": selfs("fdfd.solve"),
        "fdfd.recycle.refactorizations": recycle.get("factorizations", 0),
        "fdfd.recycle.recycled_solves": recycle.get("recycled_solves", 0),
        "fdfd.recycle.sweeps": recycle.get("krylov_iterations", 0),
        "fdfd.recycle.fallbacks": recycle.get("fallbacks", 0),
        "fdfd.forward_s": tracer.inclusive_seconds("fdfd.forward"),
        "fdfd.adjoint_s": tracer.inclusive_seconds("fdfd.adjoint"),
        "fdfd.gradient.self_s": selfs("fdfd.gradient"),
        "fdfd.normalization.calls": tracer.calls("fdfd.normalization"),
        "fdfd.normalization.self_s": selfs("fdfd.normalization"),
        "fdfd.modes.calls": tracer.calls("fdfd.modes"),
        "fdfd.modes.self_s": selfs("fdfd.modes"),
        "fdfd.monitors.self_s": selfs("fdfd.monitors"),
        "fdfd.simulation.self_s": selfs("fdfd.simulation"),
        "fdfd.result_cache.hits": stats["result_cache"]["hits"],
        "fdfd.result_cache.misses": stats["result_cache"]["misses"],
        "invdes.adjoint.self_s": selfs("invdes.adjoint"),
        "invdes.parametrization.self_s": selfs("invdes.parametrization"),
        "invdes.variation.self_s": selfs("invdes.variation"),
        "data.labels.self_s": selfs("data.labels"),
        "data.shards.save_s": selfs("data.shards.save"),
        "data.shards.bytes_written": tracer.counters.get("data.shards.bytes_written", 0),
        "data.shards.load_s": selfs("data.shards.load"),
        "data.loader.wait_s": selfs("data.loader"),
        "train.forward_s": selfs("train.forward"),
        "train.loss_s": selfs("train.loss"),
        "train.backward_s": selfs("train.backward"),
        "train.step_s": selfs("train.step"),
        "train.evaluate_s": selfs("train.evaluate"),
        "autograd.gelu_s": selfs("autograd.gelu"),
        "autograd.spectral2d_s": selfs("autograd.spectral2d"),
        "autograd.spectral1d_s": selfs("autograd.spectral1d"),
        "trace.unattributed_s": selfs(ROOT),
    }


def combine_layer_values(episodes: list[dict], traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Sum the episodes' values; ratios are recomputed from the sums."""
    total = {name: 0.0 for name, _, _ in PER_LAYER}
    for values in episodes:
        for name, value in values.items():
            total[name] += value
    hits = total["fdfd.factorize.hits"]
    builds = total["fdfd.factorize.builds"]
    # No factorization store is attached, so every miss is a build.
    total["fdfd.factorize.hit_ratio"] = _ratio(hits, hits + builds)
    recycled = total["fdfd.recycle.recycled_solves"]
    total["fdfd.recycle.ratio"] = _ratio(recycled, recycled + total["fdfd.recycle.refactorizations"])
    traced = sum(traced_walls)
    total["trace.attributed_frac"] = 1.0 - _ratio(total["trace.unattributed_s"], traced)
    untraced = sum(untraced_walls)
    total["trace.overhead_frac"] = _ratio(traced - untraced, untraced)
    for name, value in total.items():
        if not math.isfinite(value):
            raise ValueError(f"per-layer metric {name} is not finite: {value}")
    return total
