"""Differential check: the default sweep against the serial oracle.

Each case runs the tiny scenario twice: once as built (the in-process
``ProcessExecutor``: journal-driven clean skips and the one sampler
with touch markers and the extraction cache, over the direct transport
on a quiescent world and through ``HttpClient.fetch`` otherwise) and once
with the sweep stage swapped for the serial oracle and its reference
sampler.  Both runs must export byte-identical ``--export`` datasets
and ``--report-json`` documents — with faults off, under chaos storms
with and without a retry budget, with ``prefer_https`` and with a
poison-only fault plan — so both transports stay pinned to the
reference behaviour beyond the fixed-seed goldens.  The snapshot
stores and the dead-letter logs must match too: most sweep-level drift
never reaches a flagged abuse.
"""

import pytest

from repro.analysis import report_json, run_analyses
from repro.core.export import dataset_to_json
from repro.core.monitoring import fast_path_eligible
from repro.core.scenario import ScenarioConfig, build_scenario
from repro.core.sweep import ProcessExecutor
from repro.faults.plan import FaultConfig
from repro.faults.retry import RetryPolicy
from repro.obs import OBS, MetricsRegistry
from tests.oracles.serial_sweep import SerialExecutor, use_serial_sweep


def _config(seed, chaos):
    config = ScenarioConfig.tiny(seed=seed)
    if chaos:
        config.faults = FaultConfig.chaos(0.05)
    return config


def _chaos_with_retries(config):
    config.faults = FaultConfig.chaos(0.08)
    config.monitor.retry = RetryPolicy.standard(3)


def _prefer_https(config):
    config.monitor.prefer_https = True


def _poison_only(config):
    # Poison a few names monitored from the first week on; with every
    # fault rate at zero the data plane stays quiescent.
    monitored = build_scenario(config).payload.collector.monitored_sorted
    config.faults = FaultConfig(
        enabled=True, poison_fqdns=tuple(monitored[::40])
    )
    assert not config.faults.any_active


def _exports(config, oracle, metrics=None):
    engine = build_scenario(config)
    if oracle:
        use_serial_sweep(engine)
    if metrics is not None:
        OBS.configure(metrics=metrics)
    try:
        engine.run()
    finally:
        OBS.reset()
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


@pytest.mark.parametrize(
    "configure", [_chaos_with_retries, _prefer_https, _poison_only],
    ids=["chaos-retries", "prefer-https", "poison-only"],
)
def test_transport_variants_match_serial_oracle(configure):
    config = ScenarioConfig.tiny(seed=1)
    configure(config)
    direct = fast_path_eligible(build_scenario(config).payload.monitor)
    assert direct is (configure is _poison_only)
    default = _exports(config, oracle=False)
    oracle = _exports(config, oracle=True)
    dataset, report, histories, dead_letters = default
    assert dataset == oracle[0]
    assert report == oracle[1]
    assert histories == oracle[2]
    assert dead_letters == oracle[3]
    if configure is _poison_only:
        poisoned = set(config.faults.poison_fqdns)
        assert poisoned
        assert poisoned <= {record.item for record in dead_letters}


def test_chaos_sweep_touches_and_matches_oracle_histories():
    # Under faults the sampler still proves unchanged states and ships
    # touch markers, with the oracle's exact store histories.
    metrics = MetricsRegistry()
    default = _exports(_config(2, chaos=True), oracle=False, metrics=metrics)
    oracle = _exports(_config(2, chaos=True), oracle=True)
    counters = metrics.counters()
    assert counters.get("sweep.sample.touch", 0) > 0
    assert counters.get("sweep.shards.generic", 0) > 0
    assert counters.get("sweep.shards.fused", 0) == 0
    assert default[2] == oracle[2]
    assert default[3] == oracle[3]


def test_clean_sweep_skips_and_matches_oracle_histories():
    # On a quiescent world most names are clean-skipped from their
    # ledger proofs, with the oracle's exact store histories.
    metrics = MetricsRegistry()
    default = _exports(_config(2, chaos=False), oracle=False, metrics=metrics)
    oracle = _exports(_config(2, chaos=False), oracle=True)
    counters = metrics.counters()
    assert counters.get("journal.clean_skips", 0) > 0
    assert counters.get("sweep.shards.fused", 0) > 0
    assert default[2] == oracle[2]
    assert default[3] == oracle[3]
