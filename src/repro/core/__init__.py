"""Core StreamApprox algorithms: OASRS sampling, linear queries, error bounds.

This subpackage is the paper's primary contribution, independent of any
stream-processing substrate:

* `repro.core.reservoir` — classic reservoir sampling (Algorithm 1),
* `repro.core.strata` — per-stratum samples, counters and weights (Eq. 1),
* `repro.core.oasrs` — Online Adaptive Stratified Reservoir Sampling
  (Algorithm 3) with pluggable reservoir-allocation policies,
* `repro.core.distributed` — synchronization-free multi-worker OASRS,
* `repro.core.query` — approximate linear queries (Eq. 2–4),
* `repro.core.error` — variance estimators and error bounds (Eq. 5–9),
* `repro.core.budget` — the §7 virtual cost function and the adaptive
  sample-size feedback loop.
"""

from .budget import (
    AccuracyBudget,
    AdaptiveSampleSizeController,
    CostModel,
    LatencyBudget,
    ResourceBudget,
    VirtualCostFunction,
)
from .distributed import ShardedExecutor
from .error import (
    ErrorBound,
    confidence_z,
    estimate_error,
    required_sample_size,
    variance_of_mean,
    variance_of_sum,
)
from .oasrs import (
    AllocationPolicy,
    EqualAllocation,
    FixedPerStratum,
    OASRSSampler,
    ProportionalAllocation,
    WaterFillingAllocation,
    oasrs_sample,
    water_filling_capacities,
)
from .query import (
    QueryResult,
    StratumStats,
    approximate_count,
    approximate_mean,
    approximate_sum,
    grouped_mean,
    grouped_sum,
    grouped_sum_results,
    histogram,
    histogram_with_errors,
)
from .quantiles import (
    HeavyHitter,
    QuantileEstimate,
    approximate_median,
    approximate_quantile,
    heavy_hitters,
)
from .reservoir import Reservoir, reservoir_sample
from .stratify import GaussianMixtureStratifier, QuantileStratifier
from .strata import (
    StratumSample,
    WeightedSample,
    combine_worker_samples,
    stratum_weight,
)

__all__ = [
    "AccuracyBudget",
    "AdaptiveSampleSizeController",
    "AllocationPolicy",
    "CostModel",
    "EqualAllocation",
    "ErrorBound",
    "FixedPerStratum",
    "GaussianMixtureStratifier",
    "HeavyHitter",
    "LatencyBudget",
    "OASRSSampler",
    "ProportionalAllocation",
    "QuantileEstimate",
    "QuantileStratifier",
    "QueryResult",
    "Reservoir",
    "ShardedExecutor",
    "ResourceBudget",
    "StratumSample",
    "StratumStats",
    "VirtualCostFunction",
    "WaterFillingAllocation",
    "WeightedSample",
    "approximate_count",
    "approximate_mean",
    "approximate_median",
    "approximate_quantile",
    "approximate_sum",
    "combine_worker_samples",
    "confidence_z",
    "estimate_error",
    "grouped_mean",
    "grouped_sum",
    "grouped_sum_results",
    "heavy_hitters",
    "histogram",
    "histogram_with_errors",
    "oasrs_sample",
    "required_sample_size",
    "reservoir_sample",
    "stratum_weight",
    "variance_of_mean",
    "variance_of_sum",
    "water_filling_capacities",
]
