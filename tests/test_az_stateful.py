"""Stateful property-based testing of availability-zone invariants.

A hypothesis rule-based machine drives a zone through arbitrary
interleavings of batch placements, single invocations, holds, time
advances, and rebalances, checking after every step that the accounting
invariants hold:

* occupied slots never exceed capacity;
* free + occupied always equals capacity;
* placement results conserve requests (served + failed == requested);
* observed CPU keys always belong to the zone's pools;
* advancing past the keep-alive with no traffic empties the zone.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.common.errors import SaturationError
from repro.cloudsim.adapters import SlidingWindowKeepAlive
from repro.cloudsim.az import AvailabilityZone, ScalingPolicy
from repro.cloudsim.host import HostPool
from repro.simclock import SimClock


class ZoneMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.clock = SimClock()
        self.zone = AvailabilityZone(
            "prop-1a",
            [
                HostPool("xeon-2.5", hosts=6, slots_per_host=16),
                HostPool("xeon-3.0", hosts=3, slots_per_host=16),
                HostPool("amd-epyc", hosts=1, slots_per_host=16,
                         affinity=0.5),
            ],
            self.clock,
            keepalive=SlidingWindowKeepAlive(120.0),
            scaling=ScalingPolicy(max_surge_slots=0),
            rng=7,
        )
        self.base_capacity = self.zone.capacity
        self.live_fis = []

    # -- actions -----------------------------------------------------------------
    @rule(n=st.integers(min_value=1, max_value=120),
          duration=st.floats(min_value=0.05, max_value=5.0),
          window=st.floats(min_value=0.0, max_value=2.0),
          tag=st.integers(min_value=0, max_value=3))
    def place_batch(self, n, duration, window, tag):
        result = self.zone.invoke_batch("fn-{}".format(tag), n, duration,
                                        window)
        assert result.served + result.failed == n
        assert result.served >= 0 and result.failed >= 0
        assert sum(result.request_cpu_counts.values()) == result.served
        assert set(result.new_fi_counts) <= set(self.zone.pools)

    @rule(duration=st.floats(min_value=0.05, max_value=5.0),
          force_new=st.booleans(),
          tag=st.integers(min_value=0, max_value=3))
    def invoke_one(self, duration, force_new, tag):
        try:
            fi, reused = self.zone.invoke_one(
                "svc-{}".format(tag), lambda cpu: duration,
                force_new=force_new)
        except SaturationError:
            assert self.zone.free_slots() == 0
        else:
            assert fi.cpu_key in self.zone.pools
            self.live_fis.append(fi)

    @rule(hold=st.floats(min_value=0.01, max_value=1.0))
    def hold_an_fi(self, hold):
        live = [fi for fi in self.live_fis
                if not fi.is_expired(self.clock.now)]
        self.live_fis = live
        if live:
            self.zone.hold_instance(live[-1], hold)

    @rule(seconds=st.floats(min_value=0.1, max_value=90.0))
    def advance(self, seconds):
        self.clock.advance(seconds)

    @rule(fast_share=st.floats(min_value=0.1, max_value=0.9))
    def rebalance(self, fast_share):
        self.zone.rebalance({"xeon-2.5": 1.0 - fast_share,
                             "xeon-3.0": fast_share})

    @rule()
    def long_quiescence_empties_zone(self):
        self.clock.advance(300.0)  # past every busy window + keep-alive
        assert self.zone.occupied() == 0

    # -- invariants ----------------------------------------------------------------
    @invariant()
    def slots_conserved(self):
        if not hasattr(self, "zone"):
            return
        occupied = self.zone.occupied()
        free = self.zone.free_slots()
        assert occupied >= 0
        assert free >= 0
        assert occupied + free == self.zone.capacity

    @invariant()
    def pool_local_accounting(self):
        if not hasattr(self, "zone"):
            return
        for pool in self.zone.pools.values():
            assert pool.occupied(self.clock.now) <= pool.capacity


ZoneMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None)
TestZoneStateMachine = ZoneMachine.TestCase
