"""Ablation: routing on stale characterizations (EX-4's "usable lifespan").

Figure 7 measures how fast a profile decays; this ablation converts decay
into routing *regret*.  For ten days across the two volatile us-west-1
zones we compare, against each day's ground-truth CPU mix, the decisions
a policy makes from:

* the **stale** day-1 profiles, versus
* **fresh** daily profiles.

Regret(day) = true expected runtime factor of the chosen zone minus that
of the day's genuinely best zone — zero when the decision is right, the
full misrouting penalty when it is wrong.  Two policies:

* **regional** (no retries) — the profile is its only information, so
  decayed shares misroute it directly;
* **hybrid** (with retries) — the in-zone CPU check self-corrects, so the
  staleness penalty shrinks.
"""

from benchmarks.conftest import once
from repro import (
    CharacterizationStore,
    RetryPolicy,
    SamplingCampaign,
    SkyMesh,
    ZoneRanker,
    build_sky,
    workload_by_name,
)
from repro.common.units import HOURS
from repro.sampling.characterization import CPUCharacterization

SEEDS = (1, 5, 23, 42, 97, 131)
ZONES = ("us-west-1a", "us-west-1b")
DAYS = 12


def truth_profile(cloud, zone_id):
    """The zone's real provisioned mix right now, as a characterization."""
    zone = cloud.zone(zone_id)
    zone.invoke_batch("probe", 1, duration=0.1, window=0.0)  # apply drift
    return CPUCharacterization(zone_id, zone.cpu_slot_shares(),
                               samples=zone.capacity, polls=0, cost=0.0,
                               created_at=cloud.clock.now)


def scores_under_truth(truth_store, workload, zone_id, with_retry):
    """True expected factor of routing to ``zone_id`` (with/without the
    focus-fastest retry)."""
    ranker = ZoneRanker(truth_store)
    factors = workload.cpu_factors()
    if not with_retry:
        return ranker.expected_factor(zone_id, factors)
    cpus = truth_store.get(zone_id).cpu_keys()
    if len(cpus) < 2:
        return ranker.expected_factor(zone_id, factors)
    retry = RetryPolicy.focus_fastest(cpus, factors)
    return ranker.expected_factor_with_retry(
        zone_id, factors, retry, base_seconds=workload.base_seconds)


def decide(store, workload, with_retry):
    """The zone a policy picks from ``store``'s (possibly stale) view."""
    ranker = ZoneRanker(store)
    factors = workload.cpu_factors()
    best_zone, best_score = None, None
    for zone_id in ZONES:
        if with_retry:
            score = scores_under_truth(store, workload, zone_id, True)
        else:
            score = ranker.expected_factor(zone_id, factors)
        if best_score is None or score < best_score:
            best_zone, best_score = zone_id, score
    return best_zone

def run_regret(seed):
    cloud = build_sky(seed=seed, aws_only=True)
    account = cloud.create_account("abl", "aws")
    mesh = SkyMesh(cloud)
    workload = workload_by_name("logistic_regression")

    # Day-1 sampled profiles = the stale store, frozen for the horizon.
    stale_store = CharacterizationStore()
    for zone_id in ZONES:
        endpoints = mesh.deploy_sampling_endpoints(account, zone_id,
                                                   count=8)
        campaign = SamplingCampaign(cloud, endpoints, max_polls=6,
                                    inter_poll_gap=1.0)
        stale_store.put(campaign.run().ground_truth())
        cloud.clock.advance(600.0)

    regrets = {("regional", "stale"): 0.0, ("regional", "fresh"): 0.0,
               ("hybrid", "stale"): 0.0, ("hybrid", "fresh"): 0.0}
    daily = []
    for day in range(DAYS):
        cloud.clock.advance(22 * HOURS)
        truth_store = CharacterizationStore()
        for zone_id in ZONES:
            truth_store.put(truth_profile(cloud, zone_id))
        day_row = {"day": day + 2}
        for policy, with_retry in (("regional", False), ("hybrid", True)):
            true_scores = {z: scores_under_truth(truth_store, workload, z,
                                                 with_retry)
                           for z in ZONES}
            best = min(true_scores.values())
            for label, store in (("stale", stale_store),
                                 ("fresh", truth_store)):
                chosen = decide(store, workload, with_retry)
                regret = true_scores[chosen] - best
                regrets[(policy, label)] += regret
                day_row["{}-{}".format(policy, label)] = regret
        daily.append(day_row)
    return regrets, daily


def run_all_seeds():
    return {seed: run_regret(seed)[0] for seed in SEEDS}


def test_ablation_staleness(benchmark, report):
    by_seed = once(benchmark, run_all_seeds)

    table = report("Ablation: 12-day routing regret from stale (day-1) "
                   "profiles, per seed")
    table.row("seed", "regional-stale", "hybrid-stale", "fresh (both)",
              widths=(5, 15, 13, 12))
    totals = {("regional", "stale"): 0.0, ("hybrid", "stale"): 0.0}
    worst = {"regional": 0.0, "hybrid": 0.0}
    for seed in SEEDS:
        regrets = by_seed[seed]
        table.row(seed,
                  "{:.3f}".format(regrets[("regional", "stale")]),
                  "{:.3f}".format(regrets[("hybrid", "stale")]),
                  "{:.3f}".format(regrets[("regional", "fresh")]
                                  + regrets[("hybrid", "fresh")]),
                  widths=(5, 15, 13, 12))
        for policy in ("regional", "hybrid"):
            totals[(policy, "stale")] += regrets[(policy, "stale")]
            worst[policy] = max(worst[policy],
                                regrets[(policy, "stale")])
    table.line()
    table.row("totals: regional-stale {:.3f}, hybrid-stale {:.3f}".format(
        totals[("regional", "stale")], totals[("hybrid", "stale")]))

    # Fresh profiles decide optimally by construction, in every seed.
    for regrets in by_seed.values():
        assert regrets[("regional", "fresh")] == 0.0
        assert regrets[("hybrid", "fresh")] == 0.0

    # Staleness costs real regret somewhere in every policy's seed set.
    assert totals[("regional", "stale")] + totals[
        ("hybrid", "stale")] > 0.5

    # The headline asymmetry: staleness risk is heavy-tailed, and the
    # worst case is far worse for the profile-only regional policy than
    # for the hybrid, whose in-zone retries self-correct.
    assert worst["regional"] > 2 * worst["hybrid"]
