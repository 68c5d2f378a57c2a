"""Figure 2 (EX-2): global CPU characterization of 41 regions.

Regenerates the per-region CPU distribution stacked-bar data for AWS
Lambda, IBM Code Engine, and Digital Ocean Functions, using the sampling
technique in each region's first availability zone.
"""

from benchmarks.conftest import once
from repro import SamplingCampaign, SkyMesh, build_sky
from repro.cloudsim.adapters import sampling_poll_size
from repro.cloudsim.catalog import catalog_region_names

POLLS_PER_REGION = 6
SEED = 2024


def characterize_globe():
    cloud = build_sky(seed=SEED)
    accounts = {name: cloud.create_account("acct-" + name, name)
                for name in ("aws", "ibm", "do")}
    mesh = SkyMesh(cloud)
    profiles = {}
    for region_name in cloud.region_names():
        region = cloud.region(region_name)
        zone_id = region.zone_ids()[0]
        n_requests = sampling_poll_size(region.provider)
        endpoints = mesh.deploy_sampling_endpoints(
            accounts[region.provider.name], zone_id,
            count=POLLS_PER_REGION,
            memory_base_mb=region.provider.memory_options_mb[-1] - 128)
        campaign = SamplingCampaign(cloud, endpoints,
                                    n_requests=n_requests,
                                    max_polls=POLLS_PER_REGION)
        profiles[(region.provider.name, region_name, zone_id)] = (
            campaign.run().ground_truth())
        cloud.clock.advance(60.0)
    return profiles


def test_fig2_global_characterization(benchmark, report):
    profiles = once(benchmark, characterize_globe)

    table = report("Figure 2: CPU distributions across 41 regions")
    table.row("provider", "region", "cpu shares", widths=(9, 18, 0))
    for (provider, region, _), profile in sorted(profiles.items()):
        shares = "  ".join(
            "{}={:.0%}".format(cpu, profile.share(cpu))
            for cpu in profile.cpu_keys())
        table.row(provider, region, shares, widths=(9, 18, 0))

    aws = {region: profile
           for (provider, region, _), profile in profiles.items()
           if provider == "aws"}

    # Paper observation (1): four distinct CPU types across AWS.
    observed = set()
    for profile in aws.values():
        observed.update(profile.cpu_keys())
    assert observed <= {"xeon-2.5", "xeon-2.9", "xeon-3.0", "amd-epyc"}
    assert {"xeon-2.5", "xeon-2.9", "xeon-3.0", "amd-epyc"} <= observed

    # Observation (3): every AWS region hosts the 2.5 GHz Xeon.
    for region, profile in aws.items():
        assert profile.share("xeon-2.5") > 0, region

    # Observation (4): af-south-1 is the region without the 3.0 GHz part.
    assert aws["af-south-1"].share("xeon-3.0") == 0.0

    # us-west-2: the 3.0 GHz part dominates.
    assert aws["us-west-2"].dominant_cpu() == "xeon-3.0"

    # Observation (2): EPYC is rare overall and most visible in
    # il-central-1.
    epyc_shares = {region: profile.share("amd-epyc")
                   for region, profile in aws.items()}
    assert epyc_shares["il-central-1"] == max(epyc_shares.values())

    # IBM and DO: near-homogeneous zones (no exploitable heterogeneity).
    for (provider, region, _), profile in profiles.items():
        if provider in ("ibm", "do"):
            assert max(profile.shares().values()) >= 0.8, region

    assert len(profiles) == len(catalog_region_names())
    table.line()
    table.line("regions characterized: {}".format(len(profiles)))
