"""Sharded parallel execution of the weekly monitor sweep.

The monitored-FQDN list is the pipeline's unit of horizontal scale
(Section 3.2 monitors millions of names weekly).  This package shards
that list into contiguous slices, samples each under a supervisor —
inline at the default one worker, in forked workers otherwise — and
merges the results deterministically in shard order, so a fault-free
sweep is byte-identical for any worker count.
"""

from repro.parallel.executor import (
    ProcessExecutor,
    SweepExecutor,
    SweepReport,
)
from repro.parallel.shard import ShardResult, fast_path_eligible, partition
from repro.parallel.supervisor import (
    DeadLetter,
    SupervisedSweep,
    SupervisorConfig,
    WorkerFailure,
    run_shards_supervised,
)

__all__ = [
    "DeadLetter",
    "ProcessExecutor",
    "SupervisedSweep",
    "SupervisorConfig",
    "SweepExecutor",
    "SweepReport",
    "ShardResult",
    "WorkerFailure",
    "fast_path_eligible",
    "partition",
    "run_shards_supervised",
]
