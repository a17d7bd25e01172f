"""Small shared utilities: configuration containers, RNG handling and numerics."""

from repro.utils.rng import get_rng, seed_everything
from repro.utils.config import Config
from repro.utils.parallel import cpu_count, effective_workers
from repro.utils.executor import (
    ExecutorConfig,
    TaskFailure,
    TaskReport,
    execute_tasks,
    one_blas_thread,
)
from repro.utils.numerics import (
    normalized_l2,
    cosine_similarity,
    complex_to_channels,
    channels_to_complex,
)

__all__ = [
    "get_rng",
    "seed_everything",
    "Config",
    "cpu_count",
    "effective_workers",
    "ExecutorConfig",
    "TaskFailure",
    "TaskReport",
    "execute_tasks",
    "one_blas_thread",
    "normalized_l2",
    "cosine_similarity",
    "complex_to_channels",
    "channels_to_complex",
]
