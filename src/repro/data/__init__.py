"""MAPS-Data: dataset acquisition for AI-assisted photonic design.

The subpackage provides

* configurable sampling strategies (:mod:`repro.data.sampling`) — random
  patterns, optimization-trajectory sampling and perturbed-trajectory
  sampling,
* rich label extraction (:mod:`repro.data.labels`) — fields, S-parameters,
  fluxes, figures of merit, adjoint gradients and Maxwell residuals for every
  sample,
* multi-fidelity dataset generation (:mod:`repro.data.generator`) — the same
  designs simulated at coarse and fine mesh,
* dataset containers with device-level splits and on-disk storage
  (:mod:`repro.data.dataset`),
* streaming shard loading for training with bounded memory
  (:mod:`repro.data.loader`), and
* distribution analysis utilities used to reproduce Fig. 5
  (:mod:`repro.data.analysis`).
"""

from repro.data.labels import RichLabels, extract_labels, standardize_input
from repro.invdes.adjoint import Sweep
from repro.data.sampling import (
    SamplingStrategy,
    RandomSampling,
    OptTrajSampling,
    PerturbedOptTrajSampling,
    make_sampler,
)
from repro.data.generator import (
    DatasetGenerator,
    GeneratorConfig,
    ShardExecutionError,
    generate_dataset,
)
from repro.data.shards import (
    ShardSpec,
    ShardTask,
    load_shard,
    plan_shards,
    run_shard,
    save_shard,
    shard_fingerprint,
)
from repro.data.dataset import (
    PhotonicDataset,
    Sample,
    datasets_bit_identical,
    split_dataset,
)
from repro.data.loader import ShardDataLoader

__all__ = [
    "RichLabels",
    "extract_labels",
    "standardize_input",
    "Sweep",
    "SamplingStrategy",
    "RandomSampling",
    "OptTrajSampling",
    "PerturbedOptTrajSampling",
    "make_sampler",
    "DatasetGenerator",
    "GeneratorConfig",
    "generate_dataset",
    "ShardExecutionError",
    "ShardSpec",
    "ShardTask",
    "plan_shards",
    "run_shard",
    "save_shard",
    "load_shard",
    "shard_fingerprint",
    "PhotonicDataset",
    "Sample",
    "datasets_bit_identical",
    "split_dataset",
    "ShardDataLoader",
]
