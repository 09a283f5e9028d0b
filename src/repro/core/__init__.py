"""The engine core: schemas, table models, the query planner, and k-NN.

``JustEngine`` is the library's main entry point.  It wires the key-value
store, the cluster cost model, the catalog, and the index strategies into
the table abstractions of Section IV-D (common / plugin / view / meta
tables) and exposes the paper's query operations (Section V-C).
"""

from repro.core.schema import Field, FieldType, Schema
from repro.core.engine import JustEngine, QueryResult
from repro.core.tables import CommonTable, ViewTable
from repro.core.plugins import TrajectoryPlugin
from repro.core.catalog import Catalog

__all__ = [
    "Field",
    "FieldType",
    "Schema",
    "JustEngine",
    "QueryResult",
    "CommonTable",
    "ViewTable",
    "TrajectoryPlugin",
    "Catalog",
]
