"""Cloud accounts: quota isolation and a spending ledger.

EX-1 validates saturation with a *second, fully independent account*: its
requests fail immediately after the first account exhausts the zone, proving
the bottleneck is the shared zone pool rather than per-account rate
limiting.  Accounts therefore own quotas and ledgers, while zones own
capacity.
"""

from repro.common.errors import ConfigurationError
from repro.cloudsim.billing import InvocationBill


class CloudAccount(object):
    """An account on one provider, with its own concurrency quota."""

    def __init__(self, account_id, provider):
        self.account_id = account_id
        self.provider = provider
        self._ledger = []
        self._throttled = 0
        self._deployments = {}
        # Admission is delegated to the provider adapter's quota model,
        # which is also the only source of the quota the account reports.
        self._quota_model = provider.adapter.quota
        self._quota_state = self._quota_model.new_state()

    # -- quota ------------------------------------------------------------------
    @property
    def concurrency_quota(self):
        """The most this account admits in one burst when fresh."""
        return self._quota_model.ceiling

    def admit_batch(self, n_requests, now=0.0):
        """How many of ``n_requests`` simultaneous requests the quota admits.

        The excess is throttled client-side and recorded.  ``now`` feeds
        time-windowed quota models (burst-then-throttle, token refill);
        the default hard cap ignores it.
        """
        admitted = self._quota_model.admit(self._quota_state, n_requests,
                                           now)
        self._throttled += n_requests - admitted
        return admitted

    @property
    def throttled_requests(self):
        return self._throttled

    # -- ledger -----------------------------------------------------------------
    def record_bill(self, bill, category="invocation"):
        self._ledger.append((category, bill))

    def total_spend(self, category=None):
        total = InvocationBill.zero()
        for entry_category, bill in self._ledger:
            if category is None or entry_category == category:
                total = total + bill
        return total.total

    def spend_breakdown(self):
        """Total spend per ledger category."""
        breakdown = {}
        for category, bill in self._ledger:
            breakdown[category] = breakdown.get(category, 0.0) + float(
                bill.total)
        return breakdown

    # -- deployments --------------------------------------------------------------
    def register_deployment(self, deployment):
        if deployment.deployment_id in self._deployments:
            raise ConfigurationError(
                "duplicate deployment id {!r}".format(
                    deployment.deployment_id))
        self._deployments[deployment.deployment_id] = deployment

    def deployments(self):
        return list(self._deployments.values())

    def __repr__(self):
        return "CloudAccount({!r}, provider={!r})".format(
            self.account_id, self.provider.name)
