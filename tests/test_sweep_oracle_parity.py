"""Differential check: the default sweep against the serial oracle.

Each case runs the tiny scenario twice: once as built (the in-process
``ProcessExecutor``: the fused sampler, resolver memo and
extraction cache on a fault-free world, ``WeeklyMonitor.sample`` under
faults) and once with the sweep stage swapped for the serial oracle.
Both runs must export byte-identical ``--export`` datasets and
``--report-json`` documents, with faults off and under a chaos storm,
so both sampler paths stay pinned to the reference behaviour beyond
the fixed-seed goldens.  The snapshot stores and the dead-letter logs
must match too: most sweep-level drift never reaches a flagged abuse.
"""

import pytest

from repro.analysis import report_json, run_analyses
from repro.core.export import dataset_to_json
from repro.core.scenario import ScenarioConfig, build_scenario
from repro.faults.plan import FaultConfig
from repro.parallel import ProcessExecutor
from tests.oracles.serial_sweep import SerialExecutor, use_serial_sweep


def _config(seed, chaos):
    config = ScenarioConfig.tiny(seed=seed)
    if chaos:
        config.faults = FaultConfig.chaos(0.05)
    return config


def _exports(config, oracle):
    engine = build_scenario(config)
    if oracle:
        use_serial_sweep(engine)
    engine.run()
    result = engine.payload
    result.weeks_run = engine.week_index
    result.metrics = engine.metrics
    result.dead_letters = engine.dead_letters
    expected = SerialExecutor if oracle else ProcessExecutor
    assert type(result.executor) is expected
    store = result.monitor.store
    histories = [
        (fqdn, [
            (s.features, s.first_seen, s.last_seen, s.observations)
            for s in store.history(fqdn)
        ])
        for fqdn in store.fqdns()
    ]
    return (
        dataset_to_json(result.dataset, indent=2),
        report_json(run_analyses(result), result),
        histories,
        list(result.dead_letters),
    )


@pytest.mark.parametrize("chaos", [False, True], ids=["clean", "chaos"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_default_sweep_exports_match_serial_oracle(seed, chaos):
    default = _exports(_config(seed, chaos), oracle=False)
    oracle = _exports(_config(seed, chaos), oracle=True)
    dataset, report, histories, dead_letters = default
    assert dataset == oracle[0]
    assert report == oracle[1]
    assert histories == oracle[2]
    assert dead_letters == oracle[3]
