"""A sky narrowed to the zones a run names behaves like the whole sky.

Every CLI site and the chaos harness build ``CloudSpec.for_zones(zones,
seed)``: only the regions hosting their zones.  That is safe only if a
zone's behaviour does not depend on which other regions share its sky:
each zone's RNG and drift seeds are keyed on ``(seed, zone_id)``, and
zones build on first use.  These tests pin that property on the three
routed paths the narrowed builds serve -- the serving gateway, the chaos
harness under every fault preset, and the routed obs burst -- for one
same-region zone pair and one cross-region pair.
"""

import pytest

from repro import (
    CloudSpec,
    Observability,
    SkyController,
    workload_by_name,
)
from repro.faults import harness
from repro.faults.harness import ChaosExperiment
from repro.faults.schedule import PRESET_NAMES
from repro.sampling.characterization import CharacterizationBuilder
from repro.serve import GatewayConfig, PoissonArrivals, ServeGateway

ZONE_PAIRS = [("us-west-1a", "us-west-1b"), ("us-east-1a", "eu-west-1a")]
PAIR_IDS = ["same-region", "cross-region"]


def _narrow(zones, seed):
    return CloudSpec.for_zones(list(zones), seed=seed).build()


def _whole(zones, seed):
    return CloudSpec(seed=seed, aws_only=True).build()


def _gateway_report(build, zones, seed=3):
    cloud = build(zones, seed)
    account = cloud.create_account("serve", "aws")
    controller = SkyController(cloud, account, list(zones),
                               obs=Observability(), sampling_count=2)
    for zone_id in zones:
        builder = CharacterizationBuilder(zone_id)
        builder.add_poll({key: pool.capacity
                          for key, pool in cloud.zone(zone_id).pools.items()
                          if pool.capacity > 0})
        controller.store.put(builder.snapshot())
    gateway = ServeGateway(controller, workload_by_name("sha1_hash"),
                           PoissonArrivals(20000.0, seed=seed),
                           GatewayConfig(), obs=controller.obs)
    return gateway.run_sync(2.0).to_dict()


@pytest.mark.parametrize("zones", ZONE_PAIRS, ids=PAIR_IDS)
def test_gateway_report_matches_whole_sky(zones):
    narrow = _gateway_report(_narrow, zones)
    assert narrow["served"] > 0
    assert narrow == _gateway_report(_whole, zones)


class _WholeSkySpec(CloudSpec):
    """``for_zones`` answers with the whole AWS sky."""

    @classmethod
    def for_zones(cls, zone_ids, seed=0):
        return CloudSpec(seed=seed, aws_only=True)


@pytest.mark.parametrize("preset", PRESET_NAMES)
@pytest.mark.parametrize("zones", ZONE_PAIRS, ids=PAIR_IDS)
def test_chaos_preset_matches_whole_sky(monkeypatch, zones, preset):
    def run():
        experiment = ChaosExperiment(zones=zones, seed=11, requests=120,
                                     interval_s=1.0)
        return [report.to_dict() for report in
                experiment.run_preset(preset, start=20.0, duration=60.0)]

    narrow = run()
    monkeypatch.setattr(harness, "CloudSpec", _WholeSkySpec)
    assert narrow == run()


def _obs_burst(build, zones, seed=7, requests=30):
    cloud = build(zones, seed)
    account = cloud.create_account("cli", "aws")
    observability = Observability()
    controller = SkyController(cloud, account, list(zones),
                               polls_per_refresh=2, poll_requests=200,
                               sampling_count=2, obs=observability)
    workload = workload_by_name("sha1_hash")
    for _ in range(requests):
        controller.submit(workload)
    return (controller.telemetry.by_zone(), controller.telemetry.by_cpu(),
            str(controller.sampling_cost),
            [event.to_dict() for event in observability.recorder.events()])


@pytest.mark.parametrize("zones", ZONE_PAIRS, ids=PAIR_IDS)
def test_routed_obs_burst_matches_whole_sky(zones):
    narrow = _obs_burst(_narrow, zones)
    assert narrow[0]
    assert narrow == _obs_burst(_whole, zones)
