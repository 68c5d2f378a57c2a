"""Poller, campaigns, progressive analysis, and cost accounting."""

import pickle

import pytest

from repro.common.errors import (
    CharacterizationError,
    ConfigurationError,
)
from repro.common.units import Money
from repro.engine.tasks import CampaignSummary
from repro.sampling import (
    Poller,
    ProgressiveAnalysis,
    SamplingCampaign,
)
from repro.sampling.campaign import CampaignResult
from repro.sampling.characterization import CharacterizationBuilder
from repro.sampling.cost import (
    campaign_cost_summary,
    characterization_cost,
    series_cost,
)
from repro.skymesh import SkyMesh
from tests.helpers import make_cloud


@pytest.fixture
def sampling_setup():
    cloud = make_cloud(seed=11)
    account = cloud.create_account("sampler", "aws")
    mesh = SkyMesh(cloud)
    endpoints = mesh.deploy_sampling_endpoints(account, "test-1a",
                                               count=30)
    return cloud, account, endpoints


class TestPoller(object):
    def test_poll_observes_requests(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        poller = Poller(cloud, endpoints, n_requests=200)
        observation = poller.poll()
        assert observation.served == 200
        assert sum(observation.cpu_counts.values()) == 200
        assert observation.cost > Money(0)

    def test_rotates_endpoints(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        poller = Poller(cloud, endpoints, n_requests=50)
        first = poller.poll()
        second = poller.poll()
        assert first.endpoint_id != second.endpoint_id
        assert poller.polls_available == 28

    def test_reset_rotation(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        poller = Poller(cloud, endpoints, n_requests=50)
        poller.poll()
        poller.reset_rotation()
        assert poller.polls_available == 30

    def test_needs_endpoints(self, sampling_setup):
        cloud, _, _ = sampling_setup
        with pytest.raises(ConfigurationError):
            Poller(cloud, [])

    def test_endpoints_must_share_zone(self, sampling_setup):
        cloud, account, endpoints = sampling_setup
        mesh = SkyMesh(cloud)
        other = mesh.deploy_sampling_endpoints(account, "test-1b", count=1,
                                               memory_base_mb=4096)
        with pytest.raises(ConfigurationError):
            Poller(cloud, endpoints + other)


class TestCampaign(object):
    def test_runs_to_saturation(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        campaign = SamplingCampaign(cloud, endpoints, n_requests=200)
        result = campaign.run()
        assert result.saturated
        # test-1a has 1,024 slots; 200-request polls saturate in ~6 polls.
        assert 4 <= result.polls_run <= 9
        assert result.total_fis >= 900

    def test_failure_threshold_stop_rule(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        campaign = SamplingCampaign(cloud, endpoints, n_requests=200)
        result = campaign.run()
        assert result.observations[-1].failure_rate > 0.5
        for observation in result.observations[:-1]:
            assert observation.failure_rate <= 0.5

    def test_max_polls_bound(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        campaign = SamplingCampaign(cloud, endpoints, n_requests=100,
                                    max_polls=3)
        result = campaign.run()
        assert result.polls_run == 3
        assert not result.saturated

    def test_ground_truth_close_to_zone_shares(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        campaign = SamplingCampaign(cloud, endpoints, n_requests=200)
        truth = campaign.run().ground_truth()
        zone_truth = cloud.zone("test-1a").cpu_slot_shares()
        assert truth.ape_to(zone_truth) < 12.0

    def test_characterization_after_validates_range(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        result = SamplingCampaign(cloud, endpoints, n_requests=200).run()
        with pytest.raises(ConfigurationError):
            result.characterization_after(0)
        with pytest.raises(ConfigurationError):
            result.characterization_after(result.polls_run + 1)

    def test_invalid_threshold(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        with pytest.raises(ConfigurationError):
            SamplingCampaign(cloud, endpoints, failure_threshold=0.0)

    @pytest.mark.parametrize("max_polls", [0, -1])
    def test_invalid_max_polls(self, sampling_setup, max_polls):
        cloud, _, endpoints = sampling_setup
        with pytest.raises(ConfigurationError, match="max_polls"):
            SamplingCampaign(cloud, endpoints, max_polls=max_polls)

    def test_negative_inter_poll_gap(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        with pytest.raises(ConfigurationError, match="inter_poll_gap"):
            SamplingCampaign(cloud, endpoints, inter_poll_gap=-1.0)

    def test_total_cost_sums_polls(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        result = SamplingCampaign(cloud, endpoints, n_requests=100,
                                  max_polls=2).run()
        assert result.total_cost == sum(
            (obs.cost for obs in result.observations), Money(0))


class TestProgressive(object):
    @pytest.fixture
    def analysis(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        return ProgressiveAnalysis(
            SamplingCampaign(cloud, endpoints, n_requests=200).run())

    def test_ape_curve_monotone_overall(self, analysis):
        curve = analysis.ape_curve()
        assert curve[-1][2] == pytest.approx(0.0)  # converges to truth
        assert curve[0][2] >= curve[-1][2]

    def test_fis_cumulative(self, analysis):
        curve = analysis.ape_curve()
        fis = [point[1] for point in curve]
        assert fis == sorted(fis)

    def test_polls_to_accuracy(self, analysis):
        polls = analysis.polls_to_accuracy(95.0)
        assert polls is not None
        assert polls <= analysis.campaign.polls_run

    def test_higher_accuracy_needs_more_polls(self, analysis):
        low = analysis.polls_to_accuracy(80.0)
        high = analysis.polls_to_accuracy(99.9)
        assert low <= high

    def test_unreachable_accuracy_returns_none(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        result = SamplingCampaign(cloud, endpoints, n_requests=100,
                                  max_polls=1).run()
        analysis = ProgressiveAnalysis(result)
        # With one poll, the partial == truth, so 100% is reachable; ask
        # for an impossible negative-APE target via accuracy > 100.
        with pytest.raises(ConfigurationError):
            analysis.polls_to_accuracy(101.0)

    def test_cost_to_accuracy(self, analysis):
        cost = analysis.cost_to_accuracy(95.0)
        assert Money(0) < cost <= analysis.campaign.total_cost


class TestCostAccounting(object):
    def test_summary_fields(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        result = SamplingCampaign(cloud, endpoints, n_requests=200).run()
        summary = campaign_cost_summary(result)
        assert summary["zone"] == "test-1a"
        assert summary["saturated"]
        assert summary["cost_per_poll_usd"] > 0
        assert summary["cost_to_95pct_usd"] <= summary["total_cost_usd"]

    def test_characterization_cost_falls_back_to_total(self,
                                                       sampling_setup):
        cloud, _, endpoints = sampling_setup
        result = SamplingCampaign(cloud, endpoints, n_requests=100,
                                  max_polls=1).run()
        assert characterization_cost(result) == result.total_cost

    def test_series_cost(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        results = [SamplingCampaign(cloud, endpoints, n_requests=100,
                                    max_polls=1).run() for _ in range(2)]
        assert series_cost(results) == (results[0].total_cost
                                        + results[1].total_cost)


class FakePoll(object):
    """Minimal stand-in for PollObservation: lets tests compose exact
    served/failed prefixes that a live campaign can't reliably produce."""

    def __init__(self, served, failed, cpu_counts=None, timestamp=0.0):
        self.served = served
        self.failed = failed
        self.cpu_counts = cpu_counts or {}
        self.cost = Money(10)
        self.timestamp = timestamp
        self.unique_fis = len(self.cpu_counts)


def _ok_poll(n=5):
    return FakePoll(served=n, failed=0, cpu_counts={"E5-2670": n})


def _dead_poll(failed=7):
    return FakePoll(served=0, failed=failed)


class TestCharacterizationAfterEdgeCases(object):
    def test_single_all_failed_poll(self):
        result = CampaignResult("test-1a", [_dead_poll(failed=3)],
                                saturated=True)
        with pytest.raises(CharacterizationError) as excinfo:
            result.characterization_after(1)
        message = str(excinfo.value)
        assert "first 1 poll(s) in test-1a" in message
        assert "poll(s) 1 were all-failed" in message
        assert "3 failed requests" in message

    def test_all_failed_prefix_lists_every_poll(self):
        result = CampaignResult(
            "test-1a", [_dead_poll(2), _dead_poll(4), _ok_poll()],
            saturated=False)
        with pytest.raises(CharacterizationError) as excinfo:
            result.characterization_after(2)
        message = str(excinfo.value)
        assert "poll(s) 1, 2 were all-failed" in message
        assert "6 failed requests" in message
        # One more poll reaches the serving one: no error.
        assert result.characterization_after(3).samples == 5

    def test_full_run_prefix_equals_ground_truth(self):
        result = CampaignResult(
            "test-1a", [_ok_poll(3), _dead_poll(), _ok_poll(4)],
            saturated=True)
        full = result.characterization_after(result.polls_run)
        assert full.samples == 7
        assert full.polls == 2  # the dead poll contributes nothing
        assert full.shares() == result.ground_truth().shares()

    def test_every_poll_dead_at_full_length(self):
        result = CampaignResult(
            "test-1a", [_dead_poll(1), _dead_poll(1), _dead_poll(1)],
            saturated=True)
        with pytest.raises(CharacterizationError) as excinfo:
            result.ground_truth()
        assert "poll(s) 1, 2, 3 were all-failed" in str(excinfo.value)

    def test_mixed_prefix_skips_dead_polls_silently(self):
        result = CampaignResult(
            "test-1a", [_dead_poll(), _ok_poll(2)], saturated=False)
        profile = result.characterization_after(2)
        assert profile.samples == 2


def _money_summary(result):
    """The summary as ``Money`` sums and a characterization builder make
    it: the reference for :meth:`CampaignSummary.of`'s one-pass fold."""
    builder = CharacterizationBuilder(result.zone_id)
    for obs in result.observations:
        if obs.served > 0:
            builder.add_poll(obs.cpu_counts, cost=obs.cost,
                             timestamp=obs.timestamp)
    observations = result.observations
    return CampaignSummary(
        result.zone_id, len(observations),
        sum(obs.served + obs.failed for obs in observations),
        sum(obs.unique_fis for obs in observations), result.saturated,
        sum((obs.cost for obs in observations), Money(0)),
        builder.snapshot())


class TestOnePassFold(object):
    @pytest.mark.parametrize("threshold,n_requests,polls,saturated", [
        (0.5, 400, 30, True),    # stops at the saturating poll
        (1.0, 400, 30, False),   # runs on past saturation: partial polls
        (1.0, 150, 4, False),    # never fails a request
    ], ids=["saturated", "partial", "unsaturated"])
    def test_summary_pickle_matches_money_reference(
            self, sampling_setup, threshold, n_requests, polls, saturated):
        cloud, _, endpoints = sampling_setup
        result = SamplingCampaign(
            cloud, endpoints, n_requests=n_requests,
            failure_threshold=threshold, max_polls=polls).run()
        assert result.saturated is saturated
        assert (pickle.dumps(CampaignSummary.of(result))
                == pickle.dumps(_money_summary(result)))
        for polls_after in (1, result.polls_run // 2, result.polls_run):
            prefix = CampaignResult(result.zone_id,
                                    result.observations[:polls_after],
                                    result.saturated)
            assert (pickle.dumps(result.characterization_after(polls_after))
                    == pickle.dumps(_money_summary(prefix).profile))

    def test_partial_campaign_has_failing_polls(self, sampling_setup):
        cloud, _, endpoints = sampling_setup
        result = SamplingCampaign(cloud, endpoints, n_requests=400,
                                  failure_threshold=1.0, max_polls=30).run()
        assert any(0 < obs.failed < obs.served + obs.failed
                   for obs in result.observations)

    def test_dead_polls_fold_like_the_reference(self):
        result = CampaignResult(
            "test-1a", [_dead_poll(4), _ok_poll(3), _dead_poll(2),
                        _ok_poll(5)], saturated=True)
        assert (pickle.dumps(CampaignSummary.of(result))
                == pickle.dumps(_money_summary(result)))

    def test_all_failed_campaign_raises_like_the_reference(self):
        result = CampaignResult("test-1a", [_dead_poll(3), _dead_poll(5)],
                                saturated=True)
        with pytest.raises(CharacterizationError) as folded:
            CampaignSummary.of(result)
        with pytest.raises(CharacterizationError) as reference:
            _money_summary(result)
        assert "poll(s) 1, 2 were all-failed" in str(folded.value)
        assert "8 failed requests" in str(folded.value)
        assert "no observations" in str(reference.value)

    def test_empty_campaign_rejects_the_poll_count(self):
        with pytest.raises(ConfigurationError):
            CampaignSummary.of(CampaignResult("test-1a", [], False))
