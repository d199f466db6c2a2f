"""Experiment harness: workloads, the evaluation engine and formatting.

The declarative surface (:class:`~repro.experiments.engine.ExperimentSpec`
executed by :class:`~repro.experiments.engine.EvaluationEngine`) is the
primary API; the ``run_*`` functions are the paper's seven experiments
pre-packaged as specs.
"""

from .backends import (
    MultiprocessingBackend,
    SchedulerBackend,
    SerialBackend,
    WorkQueueBackend,
    WorkQueueError,
    make_backend,
)
from .cache import (
    CellCacheError,
    CellCacheStore,
    InMemoryCellCache,
    SqliteCellCache,
    make_cache_store,
    serialize_cell_key,
)
from .engine import EvalContext, EvaluationEngine, ExperimentSpec
from .formatting import (
    format_percent,
    format_series,
    format_table,
    mean_ci,
    summarize_over_seeds,
)
from .worlds import (
    WORLDS,
    RealWorld,
    geolife_world,
    list_worlds,
    make_world,
    register_world,
    shard_world_specs,
)
from .runner import (
    DEFAULT_MECHANISM_SPECS,
    DEFAULT_SEED_SWEEP,
    seed_sweep,
    ground_truth_pois,
    run_area_coverage,
    run_mixzone_stats,
    run_poi_retrieval,
    run_reidentification,
    run_spatial_distortion,
    run_tracking,
    run_tradeoff_frontier,
)
from .workloads import (
    WORKLOAD_SCALES,
    crossing_rich_world,
    figure1_world,
    split_train_publish,
    standard_world,
)

__all__ = [
    "ExperimentSpec",
    "EvaluationEngine",
    "EvalContext",
    "SchedulerBackend",
    "SerialBackend",
    "MultiprocessingBackend",
    "WorkQueueBackend",
    "WorkQueueError",
    "make_backend",
    "CellCacheError",
    "CellCacheStore",
    "InMemoryCellCache",
    "SqliteCellCache",
    "make_cache_store",
    "serialize_cell_key",
    "WORLDS",
    "make_world",
    "register_world",
    "list_worlds",
    "RealWorld",
    "geolife_world",
    "shard_world_specs",
    "format_table",
    "format_series",
    "format_percent",
    "mean_ci",
    "summarize_over_seeds",
    "DEFAULT_MECHANISM_SPECS",
    "DEFAULT_SEED_SWEEP",
    "seed_sweep",
    "ground_truth_pois",
    "run_poi_retrieval",
    "run_spatial_distortion",
    "run_area_coverage",
    "run_reidentification",
    "run_tracking",
    "run_tradeoff_frontier",
    "run_mixzone_stats",
    "WORKLOAD_SCALES",
    "standard_world",
    "crossing_rich_world",
    "figure1_world",
    "split_train_publish",
]
