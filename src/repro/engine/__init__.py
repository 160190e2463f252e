"""Batched query execution: scheduler, answer cache, request types.

See ``docs/architecture.md`` for the algorithm -> engine -> oracle
layering and :class:`QueryEngine` for the scheduling loop.
"""

from repro.engine.cache import AnswerCache
from repro.engine.requests import IndexKey, QueryBatch, QueryKey, set_query_key
from repro.engine.scheduler import CoverageStepper, Flow, QueryEngine
from repro.engine.stats import EngineStats

__all__ = [
    "AnswerCache",
    "CoverageStepper",
    "EngineStats",
    "Flow",
    "IndexKey",
    "QueryBatch",
    "QueryEngine",
    "QueryKey",
    "set_query_key",
]
