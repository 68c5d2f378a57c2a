"""SAAF-style profiling: inspector and reports."""

import pytest

from repro.cloudsim.handlers import SleepHandler
from repro.saaf import (
    Inspector,
    aggregate_cpu_counts,
    report_from_invocation,
    reports_from_placement,
)
from tests.helpers import sleep_poll


@pytest.fixture
def invocation(cloud, aws_account):
    deployment = cloud.deploy(aws_account, "test-1a", "fn", 2048,
                              handler=SleepHandler(0.25))
    return cloud.invoke(deployment)


class TestInspector(object):
    def test_inspect_cpu(self, invocation):
        report = Inspector(invocation).inspect_cpu().finish()
        assert report["cpuModel"] == invocation.cpu_key
        assert "Intel" in report["cpuType"]
        assert report["cpuMhz"] in (2500.0, 2900.0)

    def test_inspect_container(self, invocation):
        report = Inspector(invocation).inspect_container().finish()
        assert report["containerID"] == invocation.instance_id
        assert report["newcontainer"] == 1

    def test_inspect_platform(self, invocation):
        report = Inspector(invocation).inspect_platform().finish()
        assert report["functionRegion"] == "test-1a"

    def test_finish_includes_runtime_ms(self, invocation):
        report = Inspector(invocation).finish()
        assert report["runtime"] == pytest.approx(251.0)

    def test_custom_attribute(self, invocation):
        report = Inspector(invocation).add_attribute("batch", 7).finish()
        assert report["batch"] == 7

    def test_warm_container_flag(self, cloud, aws_account):
        deployment = cloud.deploy(aws_account, "test-1a", "fn2", 2048,
                                  handler=SleepHandler(0.25))
        cloud.invoke(deployment)
        cloud.clock.advance(1.0)
        warm = cloud.invoke(deployment)
        report = Inspector(warm).inspect_container().finish()
        assert report["newcontainer"] == 0


class TestReports(object):
    def test_report_from_invocation(self, invocation):
        report = report_from_invocation(invocation)
        assert report.cpu_key == invocation.cpu_key
        assert report.is_cold
        assert report.zone == "test-1a"
        assert "cpuVendor" in report

    def test_reports_from_placement(self, cloud, aws_account):
        deployment = cloud.deploy(aws_account, "test-1a", "fn3", 2048,
                                  handler=SleepHandler(0.25))
        result, _ = sleep_poll(cloud, deployment, 50)
        reports = reports_from_placement(result)
        assert len(reports) == result.served
        counts = aggregate_cpu_counts(reports)
        assert counts == result.request_cpu_counts

    def test_reports_from_placement_capped(self, cloud, aws_account):
        deployment = cloud.deploy(aws_account, "test-1a", "fn4", 2048,
                                  handler=SleepHandler(0.25))
        result, _ = sleep_poll(cloud, deployment, 50)
        reports = reports_from_placement(result, max_reports=10)
        assert len(reports) == 10

    def test_aggregate_from_dicts(self):
        counts = aggregate_cpu_counts([
            {"cpuModel": "a"}, {"cpuModel": "a"}, {"cpuModel": "b"},
            {"other": 1},
        ])
        assert counts == {"a": 2, "b": 1}
