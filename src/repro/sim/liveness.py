"""Per-peer liveness: heartbeat + suspicion feeding the repair path.

The workload driver's in-window repair (``ConcurrentConfig.repair_delay``)
is an oracle: it knows a crash happened because it submitted it.  Under
*correlated* failure — a whole region going dark at once — that shortcut
hides exactly the hard part, so the chaos scenarios detect crashes the way
a deployment does (the relay/health-check pattern the ROADMAP names):

* every monitor round, each live peer sends one ``MsgType.HEARTBEAT`` to
  each of its failure-detection neighbours
  (:meth:`~repro.sim.runtime.AsyncOverlayRuntime.liveness_targets` — for
  BATON the in-order adjacents, which between them cover every peer);
* a probe into a dead peer is counted on the bus *before* the send raises
  (detection traffic is real traffic — the honesty rule), and bumps the
  target's suspicion count;
* suspicion crossing the threshold escalates: if the overlay supports
  repair and the target is an outstanding ghost, the monitor submits the
  repair — the same :meth:`submit_repair` path the oracle used, now driven
  by observed silence instead of omniscience.

The monitor rides the shared simulator, so detection latency (round
interval x threshold) is visible in every recovery metric it feeds.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.net.address import Address
from repro.net.message import MsgType
from repro.sim.runtime import AsyncOverlayRuntime, OpFuture
from repro.util.errors import PeerNotFoundError


class LivenessMonitor:
    """Heartbeat rounds + suspicion counters over one runtime.

    ``on_repair`` (optional) receives each repair future the monitor
    submits, so workload drivers can fold the repairs into their reports
    exactly like oracle-scheduled ones.
    """

    def __init__(
        self,
        anet: AsyncOverlayRuntime,
        *,
        interval: float = 2.0,
        suspicion_threshold: int = 2,
        horizon: Optional[float] = None,
        on_repair: Optional[Callable[[OpFuture], None]] = None,
    ):
        if interval <= 0:
            raise ValueError("monitor interval must be positive")
        if suspicion_threshold < 1:
            raise ValueError("suspicion threshold must be at least 1")
        self.anet = anet
        self.interval = interval
        self.suspicion_threshold = suspicion_threshold
        self.horizon = horizon
        self.on_repair = on_repair
        #: Probes sent (including ones that found their target dead).
        self.heartbeats = 0
        #: Probes that found their target dead.
        self.failed_heartbeats = 0
        #: Suspicions that crossed the threshold (one per detected crash).
        self.suspicions = 0
        #: Repairs the monitor submitted off a confirmed suspicion.
        self.repairs_submitted = 0
        self._suspect_counts: Dict[Address, int] = {}
        self._started = False

    def start(self) -> None:
        """Schedule the first round ``interval`` from now (idempotent)."""
        if self._started:
            return
        self._started = True
        self.anet.sim.schedule(self.interval, self._round, label="liveness")

    def _round(self) -> None:
        anet = self.anet
        net = anet.net
        for address in list(net.addresses()):
            # liveness_targets is [] for a peer that crashed or departed
            # since the snapshot, and for overlays without an adjacency.
            for target in anet.liveness_targets(address):
                if target == address:
                    continue
                self.heartbeats += 1
                try:
                    anet.bus.send(address, target, MsgType.HEARTBEAT)
                except PeerNotFoundError:
                    self.failed_heartbeats += 1
                    count = self._suspect_counts.get(target, 0) + 1
                    self._suspect_counts[target] = count
                    if count == self.suspicion_threshold:
                        self.suspicions += 1
                        self._escalate(target)
                else:
                    self._suspect_counts.pop(target, None)
        if self.horizon is None or anet.sim.now + self.interval <= self.horizon:
            anet.sim.schedule(self.interval, self._round, label="liveness")

    def _escalate(self, target: Address) -> None:
        """A confirmed suspicion: hand the ghost to the repair path."""
        anet = self.anet
        if not anet.supports("repair") or target not in anet.pending_repairs():
            return
        future = anet.submit_repair(target)
        self.repairs_submitted += 1
        # Reset so a blocked repair (deadlocked on a neighbouring ghost,
        # say) is re-detected and re-tried by a later round.
        self._suspect_counts.pop(target, None)
        if self.on_repair is not None:
            self.on_repair(future)


__all__ = ["LivenessMonitor"]
