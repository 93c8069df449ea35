"""Per-tenant budget admission and fair-share capacity arbitration.

The serving layer answers many concurrent budgeted queries from one
shared deployment, so two resources need arbitration *before* a plan
ever runs:

* **How much sampling may a tenant consume over time?**  Each tenant
  holds a budget fraction ``b ∈ (0, 1]`` of the samples their submitted
  work would cost, enforced by ratio accounting — the admission rule of
  the streaming budget managers (river ``BudgetManager``, scikit-activeml
  ``FixedBudget``): keep ``observed`` (sample cost of everything the
  tenant submitted) and ``sampled`` (cost of everything admitted), and
  admit a query of cost ``c`` iff::

      observed * b - sampled >= c

  which is the classic unit-cost rule ``observed * budget - sampled >= 1``
  generalized to weighted costs.  The rule is *self-correcting*: every
  admission spends exactly what the slack affords, so the invariant
  ``sampled <= observed * b`` holds at every instant — a tenant can never
  leak budget from another tenant's account — while a temporarily
  over-budget tenant earns admission back simply by continuing to submit
  (observed grows, sampled doesn't).

* **How many samples may be in flight at once?**  A global ``capacity``
  (in the same sample-cost units) bounds concurrently running queries.
  When oversubscribed, waiters are granted **fair-share**: the next slot
  goes to the queued tenant with the least *cumulative granted cost* (a
  stride-scheduling ordering), FIFO within a tenant — so a tenant
  queueing 10 queries cannot starve a tenant queueing 1.  Fairness
  affects only *when* a query starts, never its plan: admitted plans run
  with exactly the sample sizes the planner derived, keeping service
  answers bitwise identical to standalone `execute_plan` runs.

Admission failures raise `AdmissionRejected` with a typed
`RejectionReason`, which the TCP protocol surfaces verbatim.
"""

from __future__ import annotations

import asyncio
import enum
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "RejectionReason",
    "AdmissionRejected",
    "TenantAccount",
    "TenantScheduler",
]

#: Tolerance for the admission comparison so a budget of exactly 1.0
#: admits every query (the slack equals the cost, less float noise).
_EPS = 1e-9


class RejectionReason(enum.Enum):
    """Why a submission was refused; the wire protocol sends ``.value``."""

    UNKNOWN_TENANT = "unknown-tenant"
    BUDGET_EXHAUSTED = "tenant-budget-exhausted"
    UNKNOWN_SOURCE = "unknown-source"
    PLAN_INVALID = "plan-invalid"
    DRAINING = "service-draining"


class AdmissionRejected(Exception):
    """A submission the scheduler (or service) refused, with a typed reason."""

    def __init__(self, reason: RejectionReason, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        super().__init__(f"{reason.value}: {detail}" if detail else reason.value)


@dataclass
class TenantAccount:
    """One tenant's ratio-accounting ledger (sample-cost units throughout)."""

    tenant_id: str
    budget: float
    #: Cost of everything this tenant submitted (admitted or not).
    observed: float = 0.0
    #: Cost of everything admitted; invariant: ``sampled <= observed * budget``.
    sampled: float = 0.0
    #: Cost currently running (granted, not yet released).
    active_cost: float = 0.0
    #: Cumulative granted cost — the fair-share ordering key.
    granted_cost: float = 0.0
    admitted: int = 0
    rejected: int = 0
    #: Cumulative settle-up delta (actual − estimated); negative = refunds.
    settled: float = 0.0
    settles: int = 0

    @property
    def ratio(self) -> float:
        """Achieved sampled/observed ratio (0 when nothing submitted)."""
        return self.sampled / self.observed if self.observed else 0.0


@dataclass
class _Waiter:
    cost: float
    seq: int
    future: "asyncio.Future[None]"


class TenantScheduler:
    """Ratio-accounting admission + fair-share capacity for many tenants.

    ``capacity`` bounds the total sample cost concurrently in flight; a
    query whose cost alone exceeds it still runs — alone — once the
    service drains (grant-when-idle, so no submission can deadlock).

    Example
    -------
    >>> sched = TenantScheduler(capacity=1000.0)
    >>> sched.register("alice", budget=1.0)
    >>> sched.admit("alice", cost=100.0)
    >>> sched.account("alice").sampled
    100.0
    """

    def __init__(self, capacity: float = 1_000_000.0) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._accounts: Dict[str, TenantAccount] = {}
        self._active_cost = 0.0
        self._waiters: Dict[str, Deque[_Waiter]] = {}
        self._seq = 0

    # -- tenant registry ----------------------------------------------------

    def register(self, tenant_id: str, budget: float = 1.0) -> TenantAccount:
        """Register (or re-budget) a tenant; budget is a fraction in (0, 1]."""
        if not 0 < budget <= 1:
            raise ValueError(
                f"tenant budget must be a fraction in (0, 1], got {budget}"
            )
        account = self._accounts.get(tenant_id)
        if account is None:
            account = TenantAccount(tenant_id=tenant_id, budget=budget)
            self._accounts[tenant_id] = account
        else:
            account.budget = budget
        return account

    def account(self, tenant_id: str) -> TenantAccount:
        try:
            return self._accounts[tenant_id]
        except KeyError:
            raise AdmissionRejected(
                RejectionReason.UNKNOWN_TENANT,
                f"tenant {tenant_id!r} is not registered",
            ) from None

    @property
    def tenants(self) -> List[str]:
        return list(self._accounts)

    # -- ratio-accounting admission -----------------------------------------

    def admit(self, tenant_id: str, cost: float) -> None:
        """Charge ``cost`` to the tenant's ledger or raise `AdmissionRejected`.

        Every submission grows ``observed`` (rejected work still counts as
        observed — that is what lets the ratio converge to the budget); only
        admitted work grows ``sampled``.
        """
        if cost <= 0:
            raise ValueError(f"query cost must be positive, got {cost}")
        account = self.account(tenant_id)
        account.observed += cost
        slack = account.observed * account.budget - account.sampled
        if slack >= cost - _EPS:
            account.sampled += cost
            account.admitted += 1
            return
        account.rejected += 1
        raise AdmissionRejected(
            RejectionReason.BUDGET_EXHAUSTED,
            f"tenant {tenant_id!r} budget {account.budget:g} exhausted: "
            f"admitting cost {cost:g} needs slack >= {cost:g}, have "
            f"{max(0.0, slack):g} (observed={account.observed:g}, "
            f"sampled={account.sampled:g})",
        )

    def settle(self, tenant_id: str, estimated: float, actual: float) -> float:
        """Reconcile a finished query's estimated cost against measured actuals.

        Admission charged the planner's pre-run ``estimated`` cost; the
        driver reports what the run *actually* sampled
        (``run_info["sampled_total"]``).  The delta lands on the ledger's
        ``sampled`` side — a refund when the run came in under its
        estimate, a surcharge when it overran — and on the fair-share
        ``granted_cost`` ordering key, both clamped at zero.

        ``observed`` deliberately stays in estimate units: a rejected
        query never runs, so demand is only ever knowable as the
        estimate.  Keeping the denominator there is what makes the
        achieved ratio converge to the budget even under a
        *systematically biased* estimator — with per-query actual
        ``a = k·e``, steady state admits a fraction ``b/k`` of
        submissions (capped at 1), so ``sampled/observed → min(b, k)``
        and consumption never drifts past ``b × estimated demand``.

        Returns the applied delta (``actual − estimated``).
        """
        account = self.account(tenant_id)
        delta = float(actual) - float(estimated)
        account.sampled = max(0.0, account.sampled + delta)
        account.granted_cost = max(0.0, account.granted_cost + delta)
        account.settled += delta
        account.settles += 1
        return delta

    # -- fair-share capacity ------------------------------------------------

    def _fits(self, cost: float) -> bool:
        # Grant-when-idle: a query costing more than the whole capacity may
        # still run once nothing else is in flight.
        return (
            self._active_cost + cost <= self.capacity + _EPS
            or self._active_cost == 0.0
        )

    def _grant(self, account: TenantAccount, cost: float) -> None:
        self._active_cost += cost
        account.active_cost += cost
        account.granted_cost += cost

    async def acquire(self, tenant_id: str, cost: float) -> None:
        """Wait for capacity; granted fair-share across queued tenants."""
        account = self.account(tenant_id)
        queue = self._waiters.get(tenant_id)
        if (queue is None or not queue) and self._fits(cost):
            self._grant(account, cost)
            return
        loop = asyncio.get_running_loop()
        waiter = _Waiter(cost=cost, seq=self._seq, future=loop.create_future())
        self._seq += 1
        self._waiters.setdefault(tenant_id, deque()).append(waiter)
        try:
            await waiter.future
        except asyncio.CancelledError:
            # Remove ourselves so _dispatch never grants a dead waiter.
            queue = self._waiters.get(tenant_id)
            if queue is not None and waiter in queue:
                queue.remove(waiter)
            self._dispatch()
            raise

    def release(self, tenant_id: str, cost: float) -> None:
        """Return a granted slot and wake fair-share waiters."""
        account = self.account(tenant_id)
        # Releases arrive in completion order, not grant order, so the float
        # sums can land a few ulps off zero: an idle ledger reads exactly 0
        # (grant-when-idle tests ``== 0.0``).
        account.active_cost -= cost
        if abs(account.active_cost) < _EPS:
            account.active_cost = 0.0
        self._active_cost -= cost
        if abs(self._active_cost) < _EPS:
            self._active_cost = 0.0
        self._dispatch()

    def _dispatch(self) -> None:
        """Grant queued waiters: least cumulative granted cost first.

        FIFO within a tenant (only the head waiter of each queue is a
        candidate); across tenants the stride-style ``granted_cost``
        ordering keeps long queues from starving short ones.  Ties break
        on submission order.
        """
        while True:
            candidates: List[Tuple[float, int, str]] = []
            for tenant_id, queue in self._waiters.items():
                if queue:
                    account = self._accounts[tenant_id]
                    candidates.append(
                        (account.granted_cost, queue[0].seq, tenant_id)
                    )
            if not candidates:
                break
            candidates.sort()
            granted_one = False
            for _granted, _seq, tenant_id in candidates:
                queue = self._waiters[tenant_id]
                waiter = queue[0]
                if waiter.future.cancelled():
                    queue.popleft()
                    granted_one = True  # re-scan: the queue head changed
                    break
                if self._fits(waiter.cost):
                    queue.popleft()
                    self._grant(self._accounts[tenant_id], waiter.cost)
                    waiter.future.set_result(None)
                    granted_one = True
                    break
            if not granted_one:
                break

    # -- observability -------------------------------------------------------

    @property
    def active_cost(self) -> float:
        """Total sample cost currently granted and in flight."""
        return self._active_cost

    def queue_depth(self, tenant_id: Optional[str] = None) -> int:
        """Waiters queued for capacity — one tenant's, or all tenants'."""
        if tenant_id is not None:
            queue = self._waiters.get(tenant_id)
            return len(queue) if queue else 0
        return sum(len(queue) for queue in self._waiters.values())

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Per-tenant ledger snapshot (the load benchmark's leakage check)."""
        return {
            tenant_id: {
                "budget": account.budget,
                "observed": account.observed,
                "sampled": account.sampled,
                "ratio": account.ratio,
                "active_cost": account.active_cost,
                "granted_cost": account.granted_cost,
                "admitted": account.admitted,
                "rejected": account.rejected,
                "settled": account.settled,
                "settles": account.settles,
                "queue_depth": self.queue_depth(tenant_id),
            }
            for tenant_id, account in self._accounts.items()
        }
