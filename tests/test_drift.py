"""Temporal drift processes."""

import numpy as np
import pytest

from repro.common.distributions import (
    CategoricalDistribution,
    absolute_percentage_error,
)
from repro.common.errors import ConfigurationError
from repro.common.rng import derive_rng
from repro.common.units import DAYS, HOURS
from repro.cloudsim.drift import DriftProcess, DriftProfile
from tests.helpers import make_zone


def base_shares():
    return CategoricalDistribution.from_shares(
        {"xeon-2.5": 0.4, "xeon-3.0": 0.3, "xeon-2.9": 0.3})


def ape_between(shares_a, shares_b):
    return absolute_percentage_error(
        CategoricalDistribution.from_shares(shares_a),
        CategoricalDistribution.from_shares(shares_b))


class TestDriftProfile(object):
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriftProfile(daily_sigma=-1)
        with pytest.raises(ConfigurationError):
            DriftProfile(excursion_prob=2.0)

    def test_presets_exist(self):
        assert DriftProfile.stable().daily_sigma < (
            DriftProfile.volatile().daily_sigma)
        assert DriftProfile.frozen().daily_sigma == 0.0


class TestDriftProcess(object):
    def make(self, profile, seed=0):
        return DriftProcess("z", base_shares(), base_hosts=100,
                            profile=profile, seed=seed)

    def test_day_zero_matches_base(self):
        process = self.make(DriftProfile.frozen())
        shares, hosts = process.target_for(0, 0)
        assert ape_between(shares, base_shares().shares()) < 1e-6
        assert hosts == 100

    def test_frozen_never_moves(self):
        process = self.make(DriftProfile.frozen())
        shares, hosts = process.target_for(13, 7)
        assert ape_between(shares, base_shares().shares()) < 1e-6
        assert hosts == 100

    def test_deterministic_across_instances(self):
        a = self.make(DriftProfile.volatile(), seed=5)
        b = self.make(DriftProfile.volatile(), seed=5)
        assert a.target_for(7, 3) == b.target_for(7, 3)

    def test_query_order_does_not_matter(self):
        a = self.make(DriftProfile.volatile(), seed=5)
        late_first = a.target_for(10, 0)
        b = self.make(DriftProfile.volatile(), seed=5)
        for day in range(10):
            b.target_for(day, 0)
        assert b.target_for(10, 0) == late_first

    def test_volatile_moves_far_within_two_days(self):
        # EX-4/Figure 7: volatile zones reach 20-50 % APE by day two.
        apes = []
        for seed in range(8):
            process = self.make(DriftProfile.volatile(), seed=seed)
            day0, _ = process.target_for(0, 0)
            day2, _ = process.target_for(2, 0)
            apes.append(ape_between(day0, day2))
        assert max(apes) > 20.0
        assert sum(apes) / len(apes) > 10.0

    def test_stable_stays_close_for_two_weeks(self):
        # EX-4/Figure 7: stable zones hold <= ~10 % APE for two weeks.
        for seed in range(5):
            process = self.make(DriftProfile.stable(), seed=seed)
            day0, _ = process.target_for(0, 0)
            day13, _ = process.target_for(13, 0)
            assert ape_between(day0, day13) < 15.0

    def test_capacity_walk_bounded(self):
        process = self.make(DriftProfile.volatile(), seed=3)
        for day in range(14):
            _, hosts = process.target_for(day, 0)
            assert 40 <= hosts <= 250

    def test_shares_always_normalized(self):
        process = self.make(DriftProfile.volatile(), seed=9)
        for day in range(14):
            shares, _ = process.target_for(day, day % 24)
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_hardware_event_can_introduce_cpu(self):
        profile = DriftProfile(daily_sigma=0.1, hardware_event_rate=1.0,
                               candidate_cpus=("amd-epyc",))
        process = self.make(profile, seed=1)
        shares, _ = process.target_for(5, 0)
        assert "amd-epyc" in shares


class TestZoneDriftHook(object):
    def test_apply_if_due_rebalances_on_hour_change(self):
        zone = make_zone()
        process = DriftProcess(zone.zone_id, zone.cpu_slot_shares(),
                               base_hosts=16,
                               profile=DriftProfile.volatile(), seed=2)
        zone.attach_drift(process)
        before = zone.cpu_slot_shares().shares()
        zone.clock.advance(3 * DAYS)
        zone.invoke_batch("fn", 10, duration=0.25, window=0.2)
        after = zone.cpu_slot_shares().shares()
        assert ape_between(before, after) > 1.0

    def test_no_rebalance_within_same_hour(self):
        zone = make_zone()
        process = DriftProcess(zone.zone_id, zone.cpu_slot_shares(),
                               base_hosts=16,
                               profile=DriftProfile.volatile(), seed=2)
        zone.attach_drift(process)
        assert not process.apply_if_due(zone, zone.clock.now)

    def test_rebalance_fires_each_hour(self):
        zone = make_zone()
        process = DriftProcess(zone.zone_id, zone.cpu_slot_shares(),
                               base_hosts=16,
                               profile=DriftProfile.stable(), seed=2)
        zone.attach_drift(process)
        zone.clock.advance(1 * HOURS + 1)
        assert process.apply_if_due(zone, zone.clock.now)


class ScalarDriftOracle(DriftProcess):
    """The drift walk as one scalar draw per CPU model and a dict-based
    softmax: the oracle the vector draws and the list softmax must match
    bit for bit."""

    def _daily_state(self, day):
        if day in self._daily_cache:
            return self._daily_cache[day]
        if day == 0:
            state = (dict(self._base_logits), 1.0)
        else:
            prev_logits, prev_cap = self._daily_state(day - 1)
            rng = derive_rng(self._seed, "drift", self.zone_id, "day", day)
            logits = {c: v + rng.normal(0.0, self.profile.daily_sigma)
                      for c, v in prev_logits.items()}
            cap = prev_cap * float(np.exp(
                rng.normal(0.0, self.profile.capacity_sigma)))
            cap = min(max(cap, 0.4), 2.5)
            if (self.profile.hardware_event_rate > 0
                    and self.profile.candidate_cpus):
                if rng.random() < self.profile.hardware_event_rate:
                    newcomer = str(rng.choice(self.profile.candidate_cpus))
                    if newcomer not in logits:
                        logits[newcomer] = max(logits.values()) - 3.0
            state = (logits, cap)
        self._daily_cache[day] = state
        return state

    def target_for(self, day, hour=0):
        logits, cap = self._daily_state(int(day))
        hour = int(hour) % 24
        rng = derive_rng(self._seed, "drift", self.zone_id, "hour", day, hour)
        sigma = self.profile.hourly_sigma
        if sigma > 0 and rng.random() < self.profile.excursion_prob:
            sigma *= self.profile.excursion_scale
        perturbed = {c: v + (rng.normal(0.0, sigma) if sigma > 0 else 0.0)
                     for c, v in logits.items()}
        values = np.array(list(perturbed.values()), dtype=float)
        values -= values.max()
        exp = np.exp(values)
        probs = exp / exp.sum()
        shares = {c: float(p) for c, p in zip(perturbed, probs)}
        return shares, max(1, int(round(self.base_hosts * cap)))


DRIFT_PROFILES = {
    "default": DriftProfile,
    "stable": DriftProfile.stable,
    "volatile": DriftProfile.volatile,
    "frozen": DriftProfile.frozen,
    "hardware-events": lambda: DriftProfile(
        daily_sigma=0.2, hardware_event_rate=0.6,
        candidate_cpus=("amd-epyc", "graviton-2", "xeon-3.0")),
}


@pytest.mark.parametrize("name", sorted(DRIFT_PROFILES))
def test_targets_match_scalar_oracle(name):
    """Every preset × seed × (day, hour): the same shares (same dict
    order) and host count, bit for bit, as the scalar-draw oracle."""
    for seed in (0, 1, 7, 9001, 123456789):
        args = ("us-west-1a", base_shares(), 64, DRIFT_PROFILES[name]())
        fast = DriftProcess(*args, seed=seed)
        oracle = ScalarDriftOracle(*args, seed=seed)
        for day in range(6):
            for hour in (0, 1, 5, 11, 17, 23):
                assert (repr(fast.target_for(day, hour))
                        == repr(oracle.target_for(day, hour)))
