"""Pub/sub over the tree: range multicast, subscriptions, notifications.

The dissemination subsystem (DESIGN.md, "Dissemination contract").  Three
pieces, all written as step generators so the sync facades and the event
runtime execute the same code (both reach the multicast and subscription
walks through ``BatonNetwork.multicast_steps`` / ``subscribe_steps``):

* :mod:`repro.pubsub.multicast` — the range-multicast primitive (route to
  the range's LCA region, delegate disjoint sub-intervals over the tree
  links; one message per owner plus an O(log N) route) and its per-owner
  unicast and flood baselines;
* :mod:`repro.pubsub.subscribe` — range subscriptions stored at range
  owners, carried across join/leave/balance restructures, and the insert
  notification push;
* :mod:`repro.pubsub.state` — per-dissemination ids and the bounded
  per-peer dedup window that turns at-least-once delivery into
  exactly-once application.

Only BATON implements the ``multicast``/``subscribe`` capabilities: the
primitive leans on order-preserving ranges and the adjacent/sideways link
set, which the hashed Chord ring and the multiway baseline do not offer.
"""

from __future__ import annotations

from repro.pubsub.multicast import (
    MulticastResult,
    flood_steps,
    multicast_steps,
    range_owners,
    unicast_steps,
)
from repro.pubsub.state import PubSubState, SEEN_WINDOW, apply_delivery
from repro.pubsub.subscribe import (
    SubscribeResult,
    Subscription,
    install_subscription,
    notify_steps,
    subscribe_steps,
    transfer_subscriptions,
)

__all__ = [
    "MulticastResult",
    "PubSubState",
    "SEEN_WINDOW",
    "SubscribeResult",
    "Subscription",
    "apply_delivery",
    "flood_steps",
    "install_subscription",
    "multicast_steps",
    "notify_steps",
    "range_owners",
    "subscribe_steps",
    "transfer_subscriptions",
    "unicast_steps",
]
