"""Multi-fidelity dataset generation.

The generator combines a device, a sampling strategy and a set of fidelity
levels, simulates every sampled design under every excitation spec and packs
the rich labels into a :class:`~repro.data.dataset.PhotonicDataset`.  When more
than one fidelity is requested, the *same* designs are simulated at every
fidelity so the dataset contains paired low/high-fidelity samples (linked by
``design_id``), which is what multi-fidelity model training consumes.

Generation is *sharded* (see :mod:`repro.data.shards`): the run is split into
deterministic fidelity x design-block shards that can execute serially, fan
out across worker processes (``workers=``) or persist as resumable artifacts
(``shard_dir=``).  Shard layout is a pure function of the config, so the
merged dataset is bit-identical regardless of worker count — parallelism is a
throughput knob, never a label change.  The solver fidelity tier is selected
end-to-end with ``engine=`` (a registry name — including a promoted surrogate
checkpoint ``"neural:<checkpoint.npz>"`` — or a per-fidelity mapping such as
``{"low": "neural:<checkpoint.npz>", "high": "direct"}``).

Run ``python -m repro.data.generator --help`` for the command-line interface.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass, replace
from pathlib import Path

from repro.data.dataset import PhotonicDataset
from repro.data.labels import RichLabels
from repro.data.sampling import DesignSample, SamplingStrategy, make_sampler
from repro.data.shards import (
    ShardTask,
    discard_stale_partials,
    engine_for_fidelity,
    engine_tag,
    plan_shards,
    quarantine_artifact,
    run_shard,
    shard_filename,
    shard_fingerprint,
    try_load_shard,
)
from repro.devices.factory import make_device
from repro.fdfd.engine import (
    SolverEngine,
    available_engines,
    load_engine_tiers,
    split_engine_name,
)
from repro.fdfd.nonlinear import KerrNonlinearity
from repro.invdes.adjoint import Sweep
from repro.utils.executor import (
    ExecutorConfig,
    TaskFailure,
    TaskReport,
    effective_workers,
    execute_tasks,
    one_blas_thread,
)
from repro.utils.rng import get_rng


class ShardExecutionError(RuntimeError):
    """Some shards failed permanently; everything else was persisted.

    Raised after every shard has had its chance (failures never abort
    siblings): ``failures`` lists the permanently-failed shards and
    ``report`` is the underlying :class:`~repro.utils.executor.TaskReport`.
    Completed shards' artifacts are already on disk, so rerunning with
    ``resume=True`` recomputes exactly the failed shards.
    """

    def __init__(self, shard_failures: list[tuple[ShardTask, TaskFailure]], report: TaskReport):
        self.shard_failures = shard_failures
        self.report = report
        described = ", ".join(
            f"shard {task.spec.index} ({task.spec.fidelity}, "
            f"designs {task.spec.design_ids[0]}..{task.spec.design_ids[-1]}): "
            f"{failure.error!r} after {failure.attempts} attempt(s)"
            for task, failure in shard_failures
        )
        super().__init__(
            f"{len(shard_failures)} shard(s) failed permanently [{described}]; "
            "completed shards were persisted — rerunning with resume=True "
            "recomputes only the failed shards"
        )


@dataclass
class GeneratorConfig:
    """Configuration of one dataset-generation run.

    ``engine`` selects the solver fidelity tier end-to-end: a registry name
    (``"direct"``, ``"recycled"``, or a promoted surrogate
    checkpoint ``"neural:<checkpoint.npz>"``), an engine instance — serial
    runs only — or a ``{fidelity: name}`` mapping with an optional ``"*"``
    default.  The exact tier (``None``, ``"direct"`` or an alias) labels
    through condensed factorizations: each design factors only its design
    region's Schur complement against an exterior factored once per device
    and wavelength (see :func:`~repro.data.labels.extract_labels_batch`).
    ``workers`` fans shards out across processes (0 = all available cores);
    ``shard_size`` fixes the shard layout independently of the worker
    count; ``shard_dir`` persists shards as resumable artifacts
    (``resume=False`` forces recomputation).
    ``design_id_offset`` shifts the global design ids of the run —
    active-learning loops use it to append new designs to an existing shard
    directory without colliding with the ids already there.

    ``task_timeout`` / ``max_retries`` / ``retry_backoff`` set the
    fault-tolerance policy of the worker fabric (see
    :mod:`repro.utils.executor`): a shard whose worker crashes, hangs past
    its deadline, or raises is retried up to ``max_retries`` times on a
    respawned worker (exponential backoff starting at ``retry_backoff``
    seconds), and a shard that fails permanently surfaces in a
    :class:`ShardExecutionError` *after* its siblings finished — their
    artifacts persist, so a ``resume=True`` rerun recomputes only what was
    lost.  Retries never change labels: shards are deterministic functions
    of the config, so the merged dataset stays bit-identical to an
    undisturbed run.

    Examples
    --------
    Paired two-tier generation (the fidelities differ by grid step), four
    worker processes, resumable artifacts::

        config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=32,
            fidelities=("low", "high"),
            engine="direct",
            workers=4,
            shard_dir="shards",   # rerunning resumes finished shards
        )
        dataset = DatasetGenerator(config).generate()

    Labelling with a promoted surrogate (checkpoint paths travel through
    worker processes, live engine instances cannot)::

        config = GeneratorConfig(engine="neural:bend_surrogate.npz", workers=4)

    ``sweep`` labels every spec at several operating points (see
    :class:`~repro.invdes.adjoint.Sweep`): a band of wavelengths (forward-only,
    so ``with_gradient=False``; ``engine="fdtd"`` covers the band with one
    pulsed run per excitation) or the Kerr fixed point at several drive
    powers::

        config = GeneratorConfig(
            device_name="kerr_limiter",
            sweep=Sweep(
                nonlinearity=KerrNonlinearity(chi3=1.1e8), intensities=(0.5, 1.0)
            ),
        )

    Shard fingerprints stamp the nonlinearity by its ``chi3`` alone, so a
    generator sweep accepts no other Kerr setting.  The default ``Sweep()``
    keeps the linear solves and every pre-existing artifact fingerprint.
    """

    device_name: str = "bending"
    strategy: str = "perturbed_opt_traj"
    num_designs: int = 32
    fidelities: tuple[str, ...] = ("low",)
    with_gradient: bool = True
    sweep: Sweep = Sweep()
    seed: int = 0
    strategy_kwargs: dict | None = None
    device_kwargs: dict | None = None
    engine: SolverEngine | str | dict | None = None
    workers: int = 1
    shard_size: int = 8
    shard_dir: str | None = None
    resume: bool = True
    design_id_offset: int = 0
    task_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.25


class DatasetGenerator:
    """Generate labelled, optionally multi-fidelity datasets for one device."""

    def __init__(self, config: GeneratorConfig | None = None, **overrides):
        if config is None:
            config = GeneratorConfig()
        if overrides:
            for key in overrides:
                if not hasattr(config, key):
                    raise TypeError(f"unknown generator option {key!r}")
            # Never mutate the caller's config: overrides apply to a copy.
            config = replace(config, **overrides)
        self.config = config
        #: Fault-tolerance accounting of the most recent ``generate`` call:
        #: the executor's :class:`~repro.utils.executor.TaskReport`, plus how
        #: many unreadable worker artifacts the parent recovered in-process.
        self.last_task_report: TaskReport | None = None
        self.last_shard_recoveries: int = 0
        config.sweep.check_gradient(config.with_gradient)
        kerr = config.sweep.nonlinearity
        chi3 = getattr(kerr, "chi3", None)
        if kerr is not None and (chi3 is None or kerr != KerrNonlinearity(chi3=chi3)):
            # Fingerprints stamp chi3 alone: any other Kerr setting would let
            # resume reuse artifacts labelled at different solver settings.
            raise ValueError(
                "generator sweeps take a nonlinearity of chi3 alone: "
                f"KerrNonlinearity(chi3=<float>), got {kerr!r}"
            )
        self._validate_engine()

    def _validate_engine(self) -> None:
        """Fail fast on unknown engine names instead of inside a worker."""
        engine = self.config.engine
        if isinstance(engine, dict):
            unknown = set(engine) - set(self.config.fidelities) - {"*"}
            if unknown:
                raise ValueError(
                    f"engine mapping keys {sorted(unknown)} match no configured "
                    f"fidelity {list(self.config.fidelities)} (use '*' for a default)"
                )
        for fidelity in self.config.fidelities:
            engine = engine_for_fidelity(self.config.engine, fidelity)
            if isinstance(engine, str):
                # A ":<spec>" suffix (checkpoint-backed engines like
                # "neural:model.npz") names the base factory; only that base
                # must exist in the registry.
                base, _ = split_engine_name(engine)
                if base not in available_engines():
                    # Optional tiers (neural, service, fdtd) register on
                    # import; pull them all in before declaring the name bad.
                    load_engine_tiers()
                if base not in available_engines():
                    raise ValueError(
                        f"unknown engine {engine!r} for fidelity {fidelity!r}; "
                        f"available: {available_engines()}"
                    )

    # -- sampling ------------------------------------------------------------------
    def _sampler(self) -> SamplingStrategy:
        return make_sampler(self.config.strategy, **(self.config.strategy_kwargs or {}))

    def _device(self, fidelity: str):
        return make_device(
            self.config.device_name, fidelity=fidelity, **(self.config.device_kwargs or {})
        )

    def sample_designs(self) -> list[DesignSample]:
        """Draw the design patterns (at the first / reference fidelity)."""
        rng = get_rng(self.config.seed)
        device = self._device(self.config.fidelities[0])
        sampler = self._sampler()
        return sampler.sample(device, self.config.num_designs, rng=rng)

    # -- generation -----------------------------------------------------------------
    def generate(
        self,
        designs: list[DesignSample] | None = None,
        workers: int | None = None,
    ) -> PhotonicDataset:
        """Run all simulations and return the labelled dataset.

        Parameters
        ----------
        designs:
            Pre-sampled designs (at the reference fidelity); drawn with the
            configured strategy if omitted.
        workers:
            Overrides ``config.workers`` for this call (0 = all cores).  The
            result is bit-identical for any worker count.
        """
        config = self.config
        if designs is None:
            designs = self.sample_designs()
        if not designs:
            raise ValueError("no designs to label")
        workers = config.workers if workers is None else workers

        reference_shape = tuple(self._device(config.fidelities[0]).design_shape)
        plan = plan_shards(config, num_designs=len(designs))
        shard_dir = Path(config.shard_dir) if config.shard_dir else None
        if shard_dir is not None:
            shard_dir.mkdir(parents=True, exist_ok=True)

        results: dict[int, tuple[list[RichLabels], list[int]]] = {}
        pending: list[ShardTask] = []
        offset = int(config.design_id_offset or 0)
        for spec in plan:
            # Shard design_ids are global (offset applied by plan_shards);
            # the designs list is indexed locally from 0.
            shard_designs = [designs[i - offset] for i in spec.design_ids]
            densities = [d.density for d in shard_designs]
            stages = [d.stage for d in shard_designs]
            weights = [float(getattr(d, "weight", 1.0)) for d in shard_designs]
            fingerprint = shard_fingerprint(config, spec, densities, stages, weights)
            path = shard_dir / shard_filename(fingerprint) if shard_dir else None
            if path is not None:
                # A writer that crashed mid-write may have left temp files;
                # they are dead weight at best (and, under the legacy naming,
                # loader-visible) — clear them before anything else runs.
                discard_stale_partials(path)
            if path is not None and config.resume:
                loaded = try_load_shard(path, fingerprint)
                if loaded is not None:
                    results[spec.index] = loaded
                    continue
                if path.exists():
                    # Present but unreadable / mismatched: quarantine it so
                    # it never poisons this (or any later) resume scan, then
                    # recompute the shard under its original name.
                    quarantine_artifact(path)
            pending.append(
                ShardTask(
                    spec=spec,
                    config=config,
                    densities=densities,
                    stages=stages,
                    reference_shape=reference_shape,
                    fingerprint=fingerprint,
                    shard_path=str(path) if path is not None else None,
                    weights=weights,
                )
            )

        num_workers = effective_workers(workers, len(pending))
        if num_workers > 1 and self._has_engine_instance():
            raise ValueError(
                "engine instances cannot cross process boundaries; pass the "
                "engine by registry name for parallel generation"
            )
        if num_workers <= 1:
            # In-process execution: artifacts are still written for resume,
            # but labels come back in memory (no compress/decompress detour).
            for task in pending:
                task.return_labels = True
        self._execute(pending, results, num_workers)

        # Merge in plan order (fidelity-major, ascending design blocks): the
        # exact order the serial loop produces.
        labels: list[RichLabels] = []
        design_ids: list[int] = []
        for spec in plan:
            shard_labels, shard_ids = results[spec.index]
            labels.extend(shard_labels)
            design_ids.extend(shard_ids)

        metadata = {
            "device": config.device_name,
            "strategy": config.strategy,
            "num_designs": config.num_designs,
            "fidelities": list(config.fidelities),
            "seed": config.seed,
            "design_id_offset": int(config.design_id_offset or 0),
            "device_kwargs": dict(config.device_kwargs or {}),
            "engine": {
                fidelity: engine_tag(engine_for_fidelity(config.engine, fidelity))
                for fidelity in config.fidelities
            },
        }
        metadata.update(config.sweep.stamp())
        return PhotonicDataset.from_labels(labels, design_ids, metadata=metadata)

    def _execute(self, pending, results, num_workers) -> None:
        """Run the pending shards and collect their labels into ``results``.

        Failed shards are salvaged from a complete artifact when one exists;
        the rest surface together in a :class:`ShardExecutionError`.
        """
        config = self.config
        executor_config = ExecutorConfig(
            timeout=config.task_timeout,
            max_retries=max(int(config.max_retries), 0),
            backoff=float(config.retry_backoff),
            seed=int(config.seed),
        )
        report = execute_tasks(
            run_shard,
            pending,
            workers=num_workers,
            config=executor_config,
        )
        self.last_task_report = report
        self.last_shard_recoveries = 0
        failures_by_position = {failure.index: failure for failure in report.failures}
        shard_failures: list[tuple[ShardTask, TaskFailure]] = []
        for position, (task, output) in enumerate(zip(pending, report.results)):
            failure = failures_by_position.get(position)
            if failure is not None:
                if task.shard_path is not None:
                    # Whatever the failed attempts left behind must never be
                    # mistaken for a finished shard on the next resume.
                    discard_stale_partials(task.shard_path)
                    salvaged = try_load_shard(task.shard_path, task.fingerprint)
                    if salvaged is not None:
                        # Complete, valid artifact: the final attempt died
                        # *after* its atomic rename.  Keep the work.
                        results[task.spec.index] = salvaged
                        continue
                    quarantine_artifact(task.shard_path)
                shard_failures.append((task, failure))
                continue
            if isinstance(output, str):
                loaded = try_load_shard(output, task.fingerprint)
                if loaded is None:
                    # The worker reported success but its artifact does not
                    # read back (e.g. storage truncated it mid-write).
                    # Quarantine the corpse and recompute this one shard
                    # in-process — exactly one shard of wasted work.
                    quarantine_artifact(output)
                    with one_blas_thread():  # as every task runs
                        labels_ids = run_shard(replace(task, return_labels=True))
                    self.last_shard_recoveries += 1
                    results[task.spec.index] = labels_ids
                    continue
                results[task.spec.index] = loaded
            else:
                results[task.spec.index] = output
        if shard_failures:
            raise ShardExecutionError(shard_failures, report)

    def _has_engine_instance(self) -> bool:
        engine = self.config.engine
        if isinstance(engine, SolverEngine):
            return True
        if isinstance(engine, dict):
            return any(isinstance(value, SolverEngine) for value in engine.values())
        return False


def generate_dataset(
    device_name: str,
    strategy: str,
    num_designs: int,
    fidelities: tuple[str, ...] = ("low",),
    seed: int = 0,
    with_gradient: bool = True,
    strategy_kwargs: dict | None = None,
    device_kwargs: dict | None = None,
    engine: SolverEngine | str | dict | None = None,
    workers: int = 1,
    shard_dir: str | None = None,
    sweep: Sweep = Sweep(),
) -> PhotonicDataset:
    """One-call dataset generation (see :class:`DatasetGenerator`)."""
    config = GeneratorConfig(
        device_name=device_name,
        strategy=strategy,
        num_designs=num_designs,
        fidelities=fidelities,
        seed=seed,
        with_gradient=with_gradient,
        strategy_kwargs=strategy_kwargs,
        device_kwargs=device_kwargs,
        engine=engine,
        workers=workers,
        shard_dir=shard_dir,
        sweep=sweep,
    )
    return DatasetGenerator(config).generate()


# --------------------------------------------------------------------------- #
# command-line interface: python -m repro.data.generator
# --------------------------------------------------------------------------- #
def _parse_engine(value: str | None) -> str | dict | None:
    """Parse ``--engine``: a name, or a ``low=neural:model.npz,high=direct`` mapping."""
    if value is None or "=" not in value:
        return value
    mapping: dict[str, str] = {}
    for item in value.split(","):
        item = item.strip()
        if not item:
            continue
        fidelity, _, name = item.partition("=")
        if not fidelity or not name:
            raise argparse.ArgumentTypeError(
                f"bad engine mapping entry {item!r}; expected fidelity=engine"
            )
        mapping[fidelity.strip()] = name.strip()
    return mapping


def _parse_json_dict(value: str | None) -> dict | None:
    if value is None:
        return None
    parsed = json.loads(value)
    if not isinstance(parsed, dict):
        raise argparse.ArgumentTypeError(f"expected a JSON object, got {value!r}")
    return parsed


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.data.generator",
        description="Generate a labelled (multi-fidelity) photonic dataset.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples:\n"
            "  # paired two-tier dataset, 4 workers, resumable shards\n"
            "  python -m repro.data.generator --fidelities low high \\\n"
            "      --engine direct --workers 4 --shard-dir shards\n"
            "  # rerun with --shard-dir and --resume (the default) to reuse\n"
            "  # finished shards; --no-resume forces recomputation\n"
            "  # label with a promoted surrogate checkpoint\n"
            "  python -m repro.data.generator --engine neural:bend_surrogate.npz\n"
        ),
    )
    parser.add_argument("--device", default="bending", help="benchmark device name")
    parser.add_argument(
        "--strategy",
        default="perturbed_opt_traj",
        help="sampling strategy (random, opt_traj, perturbed_opt_traj)",
    )
    parser.add_argument("--num-designs", type=int, default=32)
    parser.add_argument(
        "--fidelities", nargs="+", default=["low"], help="fidelity levels to simulate"
    )
    parser.add_argument(
        "--engine",
        type=_parse_engine,
        default=None,
        help=(
            'solver engine name ("direct", "recycled", or a promoted '
            'surrogate "neural:<checkpoint.npz>"), or a per-fidelity mapping '
            '"low=neural:<checkpoint.npz>,high=direct"'
        ),
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (0 = all cores)"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--shard-size", type=int, default=8, help="designs per shard")
    parser.add_argument(
        "--shard-dir", default=None, help="directory for resumable shard artifacts"
    )
    parser.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="reuse finished shard artifacts in --shard-dir",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        help=(
            "per-shard deadline in seconds: a worker that exceeds it is "
            "killed and its shard retried on a fresh worker (default: none)"
        ),
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        help=(
            "re-executions allowed per shard after a crash, timeout or "
            "error before it is reported as permanently failed"
        ),
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.25,
        help="base retry delay in seconds (doubles per attempt, jittered)",
    )
    parser.add_argument(
        "--no-gradient",
        action="store_true",
        help="skip adjoint-gradient labels (forward-only dataset)",
    )
    parser.add_argument(
        "--wavelengths",
        nargs="+",
        type=float,
        default=None,
        metavar="UM",
        help=(
            "broadband mode: label every spec at each of these wavelengths "
            "(micrometres) instead of its own; forward-only, so requires "
            "--no-gradient.  With --engine fdtd one pulsed time-domain run "
            "per excitation covers the whole set"
        ),
    )
    parser.add_argument(
        "--chi3",
        type=float,
        default=None,
        help=(
            "nonlinear mode: label at the converged Kerr fixed point with "
            "this chi3 (eps_eff = eps + chi3*|E|^2 over the device's "
            "nonlinear-material map)"
        ),
    )
    parser.add_argument(
        "--intensities",
        nargs="+",
        type=float,
        default=None,
        metavar="SCALE",
        help=(
            "intensity axis of nonlinear runs (requires --chi3): label every "
            "spec at each of these source scales, intensity-major"
        ),
    )
    parser.add_argument(
        "--device-kwargs", type=_parse_json_dict, default=None, help="JSON object"
    )
    parser.add_argument(
        "--strategy-kwargs", type=_parse_json_dict, default=None, help="JSON object"
    )
    parser.add_argument("--output", "-o", default="dataset.npz", help="output .npz path")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        sweep = Sweep(
            wavelengths=args.wavelengths,
            nonlinearity=None if args.chi3 is None else KerrNonlinearity(chi3=args.chi3),
            intensities=args.intensities,
        )
    except ValueError as error:
        parser.error(str(error))
    config = GeneratorConfig(
        device_name=args.device,
        strategy=args.strategy,
        num_designs=args.num_designs,
        fidelities=tuple(args.fidelities),
        with_gradient=not args.no_gradient,
        sweep=sweep,
        seed=args.seed,
        strategy_kwargs=args.strategy_kwargs,
        device_kwargs=args.device_kwargs,
        engine=args.engine,
        workers=args.workers,
        shard_size=args.shard_size,
        shard_dir=args.shard_dir,
        resume=args.resume,
        task_timeout=args.task_timeout,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
    )
    generator = DatasetGenerator(config)
    start = time.perf_counter()
    dataset = generator.generate()
    elapsed = time.perf_counter() - start
    dataset.save(args.output)
    print(
        f"generated {len(dataset)} samples "
        f"({config.num_designs} designs x {len(config.fidelities)} fidelities) "
        f"in {elapsed:.1f}s with workers={config.workers} -> {args.output}"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
