"""Cross-provider sky routing: AWS vs. IBM Code Engine vs. Digital Ocean.

The sky vision is provider freedom: characterize zones on *all three*
platforms, then route by expected **dollars** per invocation — expected
runtime on the zone's CPU mix times the provider's own GB-second rate.
Run-of-the-mill regional routing compares runtimes only; across providers
that is not enough, because billing rates differ by >2x.

Run:  python examples/cross_provider_sky.py
"""

from repro import (
    CharacterizationStore,
    SamplingCampaign,
    SkyMesh,
    SmartRouter,
    UniversalDynamicFunctionHandler,
    ZoneRanker,
    build_sky,
    workload_by_name,
)
from repro.cloudsim.adapters import sampling_poll_size
from repro.core.policies import CheapestCostPolicy
from repro.workloads import resolve_runtime_model

# One zone per provider.  The AWS zone is af-south-1 — the region with no
# 3.0 GHz parts — so its CPU mix is *slower* than Digital Ocean's, while
# AWS bills ~10 % less per GB-second: runtime and dollars disagree.
CANDIDATES = {
    "aws": "af-south-1a",
    "ibm": "us-south",
    "do": "nyc1",
}
MEMORY_MB = 1024


def main():
    cloud = build_sky(seed=13)
    accounts = {name: cloud.create_account("acct-" + name, name)
                for name in ("aws", "ibm", "do")}
    mesh = SkyMesh(cloud)
    store = CharacterizationStore()
    handler = UniversalDynamicFunctionHandler(resolve_runtime_model)

    print("Characterizing one zone per provider...")
    for provider_name, zone_id in CANDIDATES.items():
        account = accounts[provider_name]
        mesh.register(cloud.deploy(account, zone_id, "dynamic", MEMORY_MB,
                                   handler=handler))
        provider = cloud.region_of_zone(zone_id).provider
        endpoints = mesh.deploy_sampling_endpoints(
            account, zone_id, count=4,
            memory_base_mb=provider.memory_options_mb[0])
        campaign = SamplingCampaign(
            cloud, endpoints, max_polls=4,
            n_requests=sampling_poll_size(provider))
        profile = campaign.run().ground_truth()
        store.put(profile)
        print("  {:<12} {}".format(zone_id, profile.shares()))

    cloud.clock.advance(900.0)
    ranker = ZoneRanker(store, cloud=cloud)
    workload = workload_by_name("sha1_hash")
    factors = workload.cpu_factors()

    print("\nExpected runtime factor vs. expected $ per invocation "
          "({} at {} MB):".format(workload.name, MEMORY_MB))
    for provider_name, zone_id in CANDIDATES.items():
        factor = ranker.expected_factor(zone_id, factors)
        dollars = ranker.expected_cost(zone_id, factors,
                                       workload.base_seconds, MEMORY_MB)
        print("  {:<5} {:<12} factor={:.3f}  ${:.8f}/inv".format(
            provider_name, zone_id, factor, dollars))

    fastest = ranker.best_zone(list(CANDIDATES.values()), factors)
    cheapest = ranker.rank_by_cost(list(CANDIDATES.values()), factors,
                                   workload.base_seconds, MEMORY_MB)[0]
    print("\nfastest zone:  {}".format(fastest))
    print("cheapest zone: {}".format(cheapest))
    if fastest != cheapest:
        print("-> runtime ranking and dollar ranking disagree: this is "
              "why cross-provider routing must compare dollars.")

    router = SmartRouter(cloud, mesh, store,
                         CheapestCostPolicy(memory_mb=MEMORY_MB),
                         workload, list(CANDIDATES.values()),
                         memory_mb=MEMORY_MB)
    request = router.route()
    print("\nCheapestCostPolicy routed the request to {} on {} for {}"
          .format(request.zone_id, request.cpu_key, request.cost))


if __name__ == "__main__":
    main()
