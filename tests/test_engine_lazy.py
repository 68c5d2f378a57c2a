"""Failure payloads stay raw and reportable.

Every backend returns results through one decoded path; a failing task
must still surface as a :class:`SweepError` whose failures carry the
original exception type and message, serially and from the pool.
"""

import pytest

from repro.common.errors import SweepError
from repro.engine import CampaignTask, CloudSpec, SweepEngine, SweepTask


def _tiny_task(seed=0, zone="us-west-1a"):
    return CampaignTask(CloudSpec.for_zones([zone], seed=seed), zone,
                        endpoints=3, n_requests=150, max_polls=2)


class FailingTask(SweepTask):
    kind = "failing"

    def __init__(self, message="boom"):
        super().__init__(CloudSpec(seed=0))
        self.message = message

    def run(self):
        raise ValueError(self.message)


class TestEngineLazy(object):
    def test_failures_stay_raw_and_reportable(self):
        with pytest.raises(SweepError) as excinfo:
            SweepEngine(workers=1).run(
                [FailingTask("the engine does not eat errors")])
        failure = excinfo.value.failures[0]
        assert failure.error_type == "ValueError"
        assert "the engine does not eat errors" in failure.message

    def test_pool_failures_stay_raw(self):
        with pytest.raises(SweepError) as excinfo:
            SweepEngine(workers=2).run(
                [FailingTask("a"), _tiny_task(0), FailingTask("b")])
        assert sorted(f.message for f in excinfo.value.failures) == \
            ["a", "b"]
