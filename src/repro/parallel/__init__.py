"""The weekly monitor sweep.

Section 3.2 samples every monitored FQDN once a week.  This package
runs that sweep as one in-process pass over the monitored list
(:class:`ProcessExecutor`), recording each sample as it is taken and
isolating failures per name, so a raising name costs one dead letter
and never a re-sample of its neighbours.
"""

from repro.core.monitoring import fast_path_eligible
from repro.parallel.executor import (
    ProcessExecutor,
    SweepExecutor,
    SweepReport,
)

__all__ = [
    "ProcessExecutor",
    "SweepExecutor",
    "SweepReport",
    "fast_path_eligible",
]
