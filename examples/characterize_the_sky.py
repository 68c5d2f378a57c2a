"""Characterize the whole sky: 41 regions, 3 providers (EX-2 flavour).

Builds the full multi-provider catalog, samples every region's first
availability zone, and prints the global CPU map plus the accuracy/cost
trade-off of progressive sampling for a few interesting zones.

Run:  python examples/characterize_the_sky.py
"""

from repro import (
    ProgressiveAnalysis,
    SamplingCampaign,
    SkyMesh,
    build_sky,
)
from repro.cloudsim.adapters import sampling_poll_size


def characterize_globally(cloud, mesh, accounts, polls=4):
    profiles = {}
    for region_name in cloud.region_names():
        region = cloud.region(region_name)
        zone_id = region.zone_ids()[0]
        endpoints = mesh.deploy_sampling_endpoints(
            accounts[region.provider.name], zone_id, count=polls,
            memory_base_mb=region.provider.memory_options_mb[-1] - 128)
        campaign = SamplingCampaign(
            cloud, endpoints, max_polls=polls,
            n_requests=sampling_poll_size(region.provider))
        profiles[region_name] = campaign.run().ground_truth()
        cloud.clock.advance(60.0)
    return profiles


def main():
    cloud = build_sky(seed=7)
    accounts = {name: cloud.create_account("acct-" + name, name)
                for name in ("aws", "ibm", "do")}
    mesh = SkyMesh(cloud)

    print("Sampling 41 regions across AWS, IBM, and Digital Ocean...")
    profiles = characterize_globally(cloud, mesh, accounts)

    print("\n{:<18} {:<5} {}".format("region", "prov", "CPU mix"))
    for region_name, profile in sorted(profiles.items()):
        provider = cloud.region(region_name).provider.name
        mix = "  ".join("{}={:.0%}".format(cpu, profile.share(cpu))
                        for cpu in profile.cpu_keys())
        print("{:<18} {:<5} {}".format(region_name, provider, mix))

    # Progressive sampling: how fast does the estimate converge, and what
    # does each accuracy level cost?
    print("\nProgressive sampling on three contrasting AWS zones:")
    for zone_id in ("us-east-2a", "us-east-2b", "eu-north-1a"):
        endpoints = mesh.deploy_sampling_endpoints(accounts["aws"],
                                                   zone_id, count=60)
        analysis = ProgressiveAnalysis(
            SamplingCampaign(cloud, endpoints).run())
        polls95 = analysis.polls_to_accuracy(95.0)
        cost95 = analysis.cost_to_accuracy(95.0)
        print("  {:<13} single-poll APE {:5.1f}%  polls->95%: {:<4} "
              "cost->95%: {}".format(
                  zone_id, analysis.ape_after(1),
                  polls95 if polls95 else "-",
                  cost95 if cost95 else "-"))
        cloud.clock.advance(600.0)


if __name__ == "__main__":
    main()
