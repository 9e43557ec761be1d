"""Sharded conservative parallel execution of the simulation engine."""

from .shard import (
    InProcessShard,
    ShardContext,
    run_sharded,
)

__all__ = [
    "InProcessShard",
    "ShardContext",
    "run_sharded",
]
