"""Exception hierarchy for the BATON reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything coming out of the simulator with one ``except`` clause while
still distinguishing the interesting cases.
"""


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class NetworkEmptyError(ReproError):
    """An operation needed at least one live peer but the network has none."""


class PeerNotFoundError(ReproError):
    """A peer address was used that does not (or no longer does) exist.

    This is raised by the message bus when a sender targets an address with
    no live peer behind it.  Protocol code catches it to exercise the
    fault-tolerance paths (routing around failures).
    """

    def __init__(self, address: int):
        super().__init__(f"no live peer at address {address}")
        self.address = address


class ProtocolError(ReproError):
    """A protocol reached a state the paper's algorithms do not allow.

    Seeing this in a test means the implementation diverged from the paper
    (for example a join request that cannot make progress, or a replacement
    search that falls off the tree).
    """


class DeliveryError(ReproError):
    """At-least-once delivery gave up on a hop.

    Raised *into* an operation's step generator by the chaos-aware runtime
    when one hop exhausts its retry budget (every retransmission dropped,
    or the destination unreachable across a partition for the whole backoff
    schedule).  Generators may catch it to clean up partial state (a Chord
    join aborts its half-registered node, say) and must then re-raise: the
    operation's :class:`~repro.sim.runtime.OpFuture` reports FAILED with
    this error — a distinguishable outcome, never a hang.
    """

    def __init__(self, src, dst, attempts: int):
        super().__init__(
            f"delivery {src}->{dst} gave up after {attempts} attempt(s)"
        )
        self.src = src
        self.dst = dst
        self.attempts = attempts


class CapabilityError(ReproError):
    """An overlay was asked for an operation it does not implement.

    The overlay interface (:class:`~repro.net.overlay.OverlayNetwork`)
    has a small set of optional capabilities (abrupt failure, repair, load
    balancing, ...); code that needs one should check ``supports()`` / the
    network class's ``capabilities`` instead of catching this.
    """


class InvariantViolation(ReproError):
    """The global structural checker found a broken invariant.

    Only raised from :mod:`repro.core.invariants`; protocols never raise it.
    The message names the invariant and the offending peer(s).
    """
