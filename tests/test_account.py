"""Cloud accounts: quotas and ledgers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloudsim.account import CloudAccount
from repro.cloudsim.billing import AWS_LAMBDA_BILLING, InvocationBill
from repro.cloudsim.provider import AWS_LAMBDA
from repro.common.units import Money


@pytest.fixture
def account():
    return CloudAccount("acct-1", AWS_LAMBDA)


class TestQuota(object):
    def test_admits_up_to_quota(self, account):
        assert account.admit_batch(500) == 500
        assert account.admit_batch(1000) == 1000

    def test_throttles_excess(self, account):
        assert account.admit_batch(1500) == 1000
        assert account.throttled_requests == 500

    def test_throttles_accumulate(self, account):
        account.admit_batch(1200)
        account.admit_batch(1300)
        assert account.throttled_requests == 500


class TestLedger(object):
    def test_records_and_totals(self, account):
        account.record_bill(AWS_LAMBDA_BILLING.bill(1024, 1.0))
        account.record_bill(AWS_LAMBDA_BILLING.bill(1024, 1.0))
        assert account.total_spend() == Money(2 * (1.66667e-5 + 2e-7))

    def test_category_filtering(self, account):
        account.record_bill(AWS_LAMBDA_BILLING.bill(1024, 1.0),
                            category="sampling")
        account.record_bill(AWS_LAMBDA_BILLING.bill(1024, 2.0),
                            category="invocation")
        assert account.total_spend("sampling") < account.total_spend()

    def test_spend_breakdown(self, account):
        account.record_bill(AWS_LAMBDA_BILLING.bill(1024, 1.0),
                            category="sampling")
        account.record_bill(AWS_LAMBDA_BILLING.bill(1024, 1.0),
                            category="sampling")
        breakdown = account.spend_breakdown()
        assert set(breakdown) == {"sampling"}
        assert breakdown["sampling"] == pytest.approx(
            2 * (1.66667e-5 + 2e-7))

    def test_empty_ledger(self, account):
        assert account.total_spend() == Money(0)


class TestDeployments(object):
    def test_register_and_list(self, account):
        class FakeDeployment(object):
            deployment_id = "dep-1"

        account.register_deployment(FakeDeployment())
        assert len(account.deployments()) == 1

    def test_duplicate_rejected(self, account):
        class FakeDeployment(object):
            deployment_id = "dep-1"

        account.register_deployment(FakeDeployment())
        from repro.common.errors import ConfigurationError
        with pytest.raises(ConfigurationError):
            account.register_deployment(FakeDeployment())


class ListLedger(object):
    """The list-backed ledger the running folds replace: every bill kept,
    summed on demand."""

    def __init__(self):
        self.entries = []

    def record_bill(self, bill, category="invocation"):
        self.entries.append((category, bill))

    def total_spend(self, category=None):
        total = InvocationBill.zero()
        for entry_category, bill in self.entries:
            if category is None or entry_category == category:
                total = total + bill
        return total.total

    def spend_breakdown(self):
        breakdown = {}
        for category, bill in self.entries:
            breakdown[category] = breakdown.get(category, 0.0) + float(
                bill.total)
        return breakdown


class TestRunningFolds(object):
    @settings(max_examples=60, deadline=None)
    @given(bills=st.lists(
        st.tuples(st.sampled_from(["serve", "poll", "invocation", None]),
                  st.integers(min_value=128, max_value=10240),
                  st.floats(min_value=0.0, max_value=900.0,
                            allow_nan=False),
                  st.integers(min_value=0, max_value=5000)),
        max_size=40))
    def test_interleaved_categories_match_list_reference(self, bills):
        account = CloudAccount("acct", AWS_LAMBDA)
        reference = ListLedger()
        for category, memory_mb, duration_s, requests in bills:
            bill = AWS_LAMBDA_BILLING.bill(memory_mb, duration_s,
                                           requests=requests)
            account.record_bill(bill, category=category)
            reference.record_bill(bill, category=category)
        for category in ("serve", "poll", "invocation", None, "absent"):
            want = reference.total_spend(category)
            got = account.total_spend(category)
            assert isinstance(got, Money)
            assert got.usd.hex() == want.usd.hex()
        want = reference.spend_breakdown()
        got = account.spend_breakdown()
        assert list(got) == list(want)
        assert [value.hex() for value in got.values()] == \
            [value.hex() for value in want.values()]

    def test_account_keeps_no_per_bill_container(self):
        account = CloudAccount("acct", AWS_LAMBDA)
        bill = AWS_LAMBDA_BILLING.bill(1024, 1.0)
        for index in range(1000):
            account.record_bill(bill, category=("a", "b")[index % 2])
        sizes = [len(value) for value in vars(account).values()
                 if isinstance(value, (list, dict, tuple, set))]
        # Deployments, the two per-category folds and the all-category
        # fold: nothing grows with the number of bills.
        assert max(sizes) <= 3
