"""Cloud accounts: quota isolation and a spending ledger.

EX-1 validates saturation with a *second, fully independent account*: its
requests fail immediately after the first account exhausts the zone, proving
the bottleneck is the shared zone pool rather than per-account rate
limiting.  Accounts therefore own quotas and ledgers, while zones own
capacity.
"""

from repro.common.errors import ConfigurationError
from repro.common.units import Money


class CloudAccount(object):
    """An account on one provider, with its own concurrency quota."""

    def __init__(self, account_id, provider):
        self.account_id = account_id
        self.provider = provider
        # Running folds of the ledger in record order, so spend queries
        # are bit-identical to summing every bill while an always-on
        # account keeps no per-bill entries: category -> [compute usd,
        # request usd, float(total) sum], plus the all-category
        # [compute usd, request usd].
        self._spend = {}
        self._spend_all = [0.0, 0.0]
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
        compute = bill.compute.usd
        request = bill.request.usd
        fold = self._spend.get(category)
        if fold is None:
            fold = self._spend[category] = [0.0, 0.0, 0.0]
        fold[0] += compute
        fold[1] += request
        fold[2] += compute + request
        every = self._spend_all
        every[0] += compute
        every[1] += request

    def total_spend(self, category=None):
        """Spend across every category, or within one, as ``Money``:
        the compute and request fees each summed in record order, as
        folding the bills with ``+`` does."""
        if category is None:
            compute, request = self._spend_all
        else:
            compute, request, _ = self._spend.get(category,
                                                  (0.0, 0.0, 0.0))
        return Money(compute + request)

    def spend_breakdown(self):
        """Total spend per ledger category (each bill's total, summed in
        record order), in first-recorded order."""
        return {category: fold[2] for category, fold in self._spend.items()}

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
