"""Fault-injecting transport: an unreliable channel over any topology.

The runtime's default delivery contract is exactly-once: every yielded
:class:`~repro.sim.topology.Hop` arrives, after one sampled delay.  The
BATON paper never promises that network — §IV-C assumes peers vanish and
routing entries go stale — and no deployed overlay gets it.  This module
is the gap-closer: :class:`FaultPlan` wraps any
:class:`~repro.sim.topology.Topology` and turns the channel into a lossy
one that can

* **drop** a hop (the message is never delivered; the sender times out),
* **duplicate** it (delivered once, plus a spurious second arrival —
  harmless when the protocol step is idempotent, and the delivery
  contract in DESIGN.md documents which steps are),
* **delay-spike** it (delivered after ``delay_spike_factor`` x the
  sampled link time — a congested or rerouted path),
* **refuse** it during a :class:`PartitionWindow` (src and dst on opposite
  sides of a cut) or an :class:`OutageWindow` (either endpoint inside a
  down region/address set).

Everything is deterministic from the plan's seed: the stochastic verdicts
consume one labelled sub-rng draw per judged hop, and partition sides are
derived per address (by the inner topology's region map when the window
names regions, by a seeded hash split otherwise).  A plan with all rates
zero and no windows judges nothing and draws nothing, which is what keeps
fault-free runs event-for-event identical to the unwrapped fast path
(pinned in ``tests/test_chaos.py``).

The plan is pure transport: it never touches overlay state.  Reacting to
the losses — timeout, exponential backoff, retry budget — is the
runtime's job (:class:`RetryPolicy` configures it; see
``AsyncOverlayRuntime._transmit``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.net.address import Address
from repro.sim.topology import Topology
from repro.util.rng import SeededRng, derive_seed

#: Message-loss rate the chaos scenarios (and the acceptance criterion:
#: >90% query availability with retries enabled) use by default.
DEFAULT_LOSS_RATE = 0.05


@dataclass(frozen=True)
class RetryPolicy:
    """At-least-once parameters for the chaos-aware runtime.

    A hop that does not arrive is retransmitted after ``timeout``, then
    ``timeout * backoff``, then ``timeout * backoff**2`` ... until it lands
    or ``budget`` retransmissions are spent, at which point the operation
    fails with :class:`~repro.util.errors.DeliveryError` (thrown into its
    step generator so partial state can be cleaned up).
    """

    timeout: float = 6.0
    backoff: float = 2.0
    budget: int = 4

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1 (delays must not shrink)")
        if self.budget < 0:
            raise ValueError("budget cannot be negative")

    def wait(self, attempt: int) -> float:
        """Backoff delay before retransmission number ``attempt`` (1-based)."""
        return self.timeout * self.backoff ** (attempt - 1)


@dataclass(frozen=True)
class PartitionWindow:
    """A network cut from ``start`` to ``end`` (simulated time).

    While active, hops whose endpoints sit on opposite sides are refused
    outright (no retransmission crosses a partition; the retry clock still
    runs, so ops spanning the cut either outlive it or exhaust their
    budget).  ``regions`` names one side by the inner topology's region
    map; with ``regions=None`` every address is assigned a side by a
    seeded hash, ``fraction`` of them on side A.
    """

    start: float
    end: float
    regions: Optional[frozenset] = None
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("partition window ends before it starts")
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass(frozen=True)
class OutageWindow:
    """A correlated blackout: every hop touching the down set is refused.

    The down set is a whole ``region`` (by the inner topology's region
    map) or an explicit ``addresses`` frozenset.  Unlike a crash, the
    peers still exist — an outage models unreachability (power, fiber
    cut), so traffic resumes when the window closes.
    """

    start: float
    end: float
    region: Optional[int] = None
    addresses: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("outage window ends before it starts")
        if self.region is None and not self.addresses:
            raise ValueError("an outage needs a region or an address set")

    def active(self, now: float) -> bool:
        return self.start <= now < self.end


@dataclass
class FaultStats:
    """What the chaos layer did to the traffic it judged.

    ``drops``/``duplicates``/``delay_spikes``/``refusals`` are per
    *transmission attempt* (the plan's verdicts); ``retries``/``timeouts``/
    ``gave_up`` are the runtime's reactions (a timeout per undelivered
    attempt, a retry per retransmission, a gave_up per op that exhausted
    its budget).  Retransmissions and duplicate deliveries are wire-level
    copies of already-counted protocol messages, so they are tracked here
    and *not* re-counted on the MessageBus — the amplification metric
    ``(messages + retries + duplicates) / messages`` makes the extra wire
    traffic visible without distorting per-protocol message counts.
    """

    drops: int = 0
    duplicates: int = 0
    delay_spikes: int = 0
    refusals: int = 0
    timeouts: int = 0
    retries: int = 0
    gave_up: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "drops": self.drops,
            "duplicates": self.duplicates,
            "delay_spikes": self.delay_spikes,
            "refusals": self.refusals,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "gave_up": self.gave_up,
        }


#: Verdict for one transmission attempt: (delivered, delay, duplicate).
Verdict = Tuple[bool, float, bool]


class FaultPlan(Topology):
    """A :class:`Topology` whose channel can lose, copy and refuse hops.

    Composes with any inner topology (``ClusteredTopology`` included: the
    plan delegates ``region_of``, so region-based windows and the
    scenarios' region queries keep working).  The plan is what the runtime
    detects to switch from the exactly-once fast path to the at-least-once
    chaos path; an *inert* plan (zero rates, no windows) delivers
    everything first try with identical delays and zero extra rng draws.
    """

    def __init__(
        self,
        inner: Topology,
        seed: int = 0,
        *,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_spike_rate: float = 0.0,
        delay_spike_factor: float = 8.0,
        partitions: Tuple[PartitionWindow, ...] = (),
        outages: Tuple[OutageWindow, ...] = (),
        retry: RetryPolicy = RetryPolicy(),
    ):
        for name, rate in (
            ("drop_rate", drop_rate),
            ("duplicate_rate", duplicate_rate),
            ("delay_spike_rate", delay_spike_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if drop_rate + duplicate_rate + delay_spike_rate > 1.0:
            raise ValueError("fault rates must sum to at most 1")
        if delay_spike_factor < 1.0:
            raise ValueError("delay_spike_factor must be >= 1")
        self.inner = inner
        self.seed = seed
        self.drop_rate = drop_rate
        self.duplicate_rate = duplicate_rate
        self.delay_spike_rate = delay_spike_rate
        self.delay_spike_factor = delay_spike_factor
        self.partitions = tuple(partitions)
        self.outages = tuple(outages)
        self.retry = retry
        self.stats = FaultStats()
        self._stochastic = drop_rate + duplicate_rate + delay_spike_rate > 0
        #: Nothing to inject, ever: judge() short-circuits to the inner
        #: sample so an inert wrapper prices hops at fast-path cost.
        self._hazardous = bool(self._stochastic or partitions or outages)
        self._draw = SeededRng(derive_seed(seed, "fault-plan")).random
        #: Partition-side cache: (window index, address) -> on side A.
        self._sides: Dict[Tuple[int, Address], bool] = {}

    # -- transport delegation (the reliable channel) --------------------------
    #
    # ``sample`` stays the *reliable* entry point: callers that use it
    # directly (table-update delivery, replica refresh sweeps — the
    # TCP-like ordered channel of the delivery contract) see the inner
    # topology's pricing untouched.  Only the runtime's per-hop transmit
    # path asks for a ``judge`` verdict.

    def sample(self, src, dst, *, size: float = 0.0) -> float:
        return self.inner.sample(src, dst)

    def direct_delay(self, src, dst) -> float:
        return self.inner.direct_delay(src, dst)

    def region_of(self, address):
        """Delegates to the inner topology (raises where it has no regions)."""
        return self.inner.region_of(address)

    # -- the unreliable channel ----------------------------------------------

    def judge(self, src, dst, now: float) -> Verdict:
        """One transmission attempt's fate: (delivered, delay, duplicate).

        Client-ingress hops (``src=None`` — the request entering at its
        co-located entry peer) and local beats (``src == dst``) never
        cross a wire, so they are never dropped, copied or refused; real
        inter-peer hops consume exactly one seeded draw when any
        stochastic rate is set, none otherwise.
        """
        if not self._hazardous:
            return (True, self.inner.sample(src, dst), False)
        on_wire = src is not None and dst is not None and src != dst
        if on_wire and self._refused(src, dst, now):
            self.stats.refusals += 1
            return (False, 0.0, False)
        duplicate = False
        spiked = False
        if on_wire and self._stochastic:
            draw = self._draw()
            if draw < self.drop_rate:
                self.stats.drops += 1
                return (False, 0.0, False)
            draw -= self.drop_rate
            if draw < self.duplicate_rate:
                duplicate = True
                self.stats.duplicates += 1
            elif draw - self.duplicate_rate < self.delay_spike_rate:
                spiked = True
                self.stats.delay_spikes += 1
        delay = self.inner.sample(src, dst)
        if spiked:
            delay *= self.delay_spike_factor
        return (True, delay, duplicate)

    def _refused(self, src: Address, dst: Address, now: float) -> bool:
        for index, window in enumerate(self.partitions):
            if window.active(now) and (
                self._side(index, window, src) != self._side(index, window, dst)
            ):
                return True
        for window in self.outages:
            if window.active(now) and (
                self._down(window, src) or self._down(window, dst)
            ):
                return True
        return False

    def _side(self, index: int, window: PartitionWindow, address: Address) -> bool:
        key = (index, address)
        side = self._sides.get(key)
        if side is None:
            if window.regions is not None:
                side = self.inner.region_of(address) in window.regions
            else:
                side = (
                    SeededRng(
                        derive_seed(self.seed, "side", index, int(address))
                    ).random()
                    < window.fraction
                )
            self._sides[key] = side
        return side

    def _down(self, window: OutageWindow, address: Address) -> bool:
        if address in window.addresses:
            return True
        if window.region is not None:
            return self.inner.region_of(address) == window.region
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultPlan drop={self.drop_rate} dup={self.duplicate_rate} "
            f"spike={self.delay_spike_rate} partitions={len(self.partitions)} "
            f"outages={len(self.outages)} over {type(self.inner).__name__}>"
        )


__all__ = [
    "DEFAULT_LOSS_RATE",
    "FaultPlan",
    "FaultStats",
    "OutageWindow",
    "PartitionWindow",
    "RetryPolicy",
]
