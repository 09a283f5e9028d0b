"""A small partitioned DataFrame engine (the Spark SQL substitute).

The SQL layer pushes spatio-temporal predicates into key-value store scans
and runs everything else — projections, residual filters, aggregates,
sorts, joins — on these DataFrames.  A DataFrame is a list of
column-major ``RowBatch``es, one per partition; operations produce new
DataFrames and never mutate columns in place.  Rows read out of it are
plain ``dict`` objects keyed by column name.
"""

from repro.dataframe.batch import (
    DEFAULT_BATCH_ROWS,
    BatchBuilder,
    RowBatch,
    batches_from_rows,
)
from repro.dataframe.dataframe import DataFrame, estimate_value_bytes
from repro.dataframe.functions import (
    AggregateSpec,
    agg_avg,
    agg_count,
    agg_collect,
    agg_max,
    agg_min,
    agg_sum,
)

__all__ = [
    "DataFrame",
    "RowBatch",
    "BatchBuilder",
    "DEFAULT_BATCH_ROWS",
    "batches_from_rows",
    "estimate_value_bytes",
    "AggregateSpec",
    "agg_avg",
    "agg_count",
    "agg_collect",
    "agg_max",
    "agg_min",
    "agg_sum",
]
