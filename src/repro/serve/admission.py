"""Admission control and autoscaling for the serving engine's replicas.

An :class:`AdmissionController` protects replicas from overload by
refusing work it can tell will be wasted.  Two orthogonal checks:

* **queue depth** (``shed_policy="queue"``) — a request routed to a
  replica whose queue already holds ``shed_queue_depth`` requests is shed
  at *submit* time.  This bounds per-replica memory and caps the tail
  latency a backlog can inflict.
* **deadline** (``shed_policy="deadline"``) — a request that has already
  waited longer than ``shed_deadline`` simulated seconds when its batch
  dispatches is shed at *dispatch* time: serving it would burn replica
  time on an answer the client has given up on.

``shed_policy="none"`` admits everything (the default).  Shed counts
accumulate in each replica's :class:`~repro.serve.cache.ServeStats`
(``stats.shed``) and surface in the
:class:`~repro.serve.engine.ServeReport`.

An :class:`Autoscaler` (enabled by ``slo_p99 > 0``) steps the live
replica count from p99-vs-SLO on the simulated clock, so scaling decisions
replay identically.
"""

from __future__ import annotations

from ..obs.trace import get_tracer
from .request import InferenceRequest

__all__ = ["AdmissionController", "Autoscaler", "SHED_POLICIES"]

SHED_POLICIES = ("none", "queue", "deadline")


class AdmissionController:
    """Queue-depth / deadline load shedding with per-replica accounting."""

    def __init__(
        self,
        policy: str = "none",
        *,
        queue_depth: int = 64,
        deadline: float = 0.0,
    ) -> None:
        if policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {policy!r}; known: {SHED_POLICIES}"
            )
        if policy == "queue" and queue_depth <= 0:
            raise ValueError("queue shedding needs shed_queue_depth > 0")
        if policy == "deadline" and deadline <= 0:
            raise ValueError("deadline shedding needs shed_deadline > 0")
        self.policy = policy
        self.queue_depth = int(queue_depth)
        self.deadline = float(deadline)

    def admit(self, replica, request: InferenceRequest) -> bool:
        """Submit-time check: may ``request`` join ``replica``'s queue?

        Counts a shed against the replica that refused it.
        """
        if self.policy == "queue" and len(replica.queue) >= self.queue_depth:
            replica.stats.shed += 1
            return False
        return True

    def filter_batch(
        self, replica, batch: list[InferenceRequest], now: float
    ) -> list[InferenceRequest]:
        """Dispatch-time check: drop batch members past their deadline."""
        if self.policy != "deadline":
            return batch
        kept = [r for r in batch if now - r.arrival <= self.deadline]
        dropped = len(batch) - len(kept)
        replica.stats.shed += dropped
        if dropped:
            tracer = get_tracer()
            if tracer is not None:
                # Shed events land on the shedding replica's track (it runs
                # replica-side, so parallel workers record it identically).
                kept_set = {r.rid for r in kept}
                rid = getattr(replica, "rid", 0)
                for r in batch:
                    if r.rid not in kept_set:
                        tracer.instant(
                            "shed", t=now, cat="router",
                            track=f"replica{rid}",
                            args={"req": int(r.rid), "waited": now - r.arrival},
                        )
        return kept


class Autoscaler:
    """Steps the live replica count from p99-vs-SLO on the simulated clock.

    Every ``interval`` simulated seconds the serving loop hands the
    autoscaler the p99 latency of requests completed in that window.  One step per
    evaluation: scale up by one replica when p99 exceeds the SLO, scale
    down by one when p99 is under half the SLO (the hysteresis band keeps
    the fleet from oscillating), always within ``[min_replicas,
    max_replicas]``.  Windows with no completed requests make no decision.
    """

    def __init__(
        self,
        slo_p99: float,
        *,
        min_replicas: int = 1,
        max_replicas: int = 8,
        interval: float = 0.01,
    ) -> None:
        if slo_p99 <= 0:
            raise ValueError("autoscaling needs a positive p99 SLO")
        if not (1 <= min_replicas <= max_replicas):
            raise ValueError(
                f"need 1 <= min_replicas <= max_replicas, got "
                f"[{min_replicas}, {max_replicas}]"
            )
        if interval <= 0:
            raise ValueError("autoscale interval must be positive")
        self.slo_p99 = float(slo_p99)
        self.min_replicas = int(min_replicas)
        self.max_replicas = int(max_replicas)
        self.interval = float(interval)

    def decide(self, p99: float | None, n_live: int) -> int:
        """Target replica count given the window's p99 (None = no data)."""
        if p99 is None:
            return n_live
        if p99 > self.slo_p99:
            return min(n_live + 1, self.max_replicas)
        if p99 < 0.5 * self.slo_p99:
            return max(n_live - 1, self.min_replicas)
        return n_live
