"""repro — a reproduction of "Experiences Building the Open OODB Query
Optimizer" (Blakeley, McKenna, Graefe; SIGMOD 1993).

A complete, from-scratch object query optimizer built on a Volcano-style
extensible framework: logical algebra with the paper's novel *materialize*
operator, transformation and implementation rules, selectivity and cost
estimation, physical properties (presence in memory) with the assembly
enforcer, a goal-directed memoizing search engine — plus every substrate
it needs: an object data model and catalog, a simulated paged store with
a buffer pool, attribute and path indexes, a ZQL-flavoured query language
with a simplification stage, an executable iterator engine, and the
greedy/naive baseline optimizers the paper compares against.

Quickstart::

    from repro import Database
    db = Database.sample(scale=0.05)
    print(db.query('SELECT * FROM City c IN Cities '
                   'WHERE c.mayor.name == "Joe"').explain())
"""

from repro.api import Database, PreparedQuery, QueryResult
from repro.cache.plan_cache import PlanCache
from repro.optimizer import (
    Cost,
    CostModel,
    CostParams,
    OptimizationResult,
    Optimizer,
    OptimizerConfig,
    PhysProps,
)

__version__ = "1.0.0"

__all__ = [
    "Cost",
    "CostModel",
    "CostParams",
    "Database",
    "OptimizationResult",
    "Optimizer",
    "OptimizerConfig",
    "PhysProps",
    "PlanCache",
    "PreparedQuery",
    "QueryResult",
    "__version__",
]
