"""Point-to-point network with per-node network-interface contention.

The paper assumes "a point-to-point network with a constant latency of
80 cycles but model[s] contention at the network interfaces"
(Section 6).  This model does the same: every message takes the
constant network latency, and each receiving node's NI serializes
message processing at ``ni_cycles`` per message.  Node-local messages
(a processor talking to its own directory) bypass the network entirely.

This is the reference oracle: closure delivery (:meth:`send`) plus the
generic packed-arguments path of :meth:`send_call`, over any queue with
``schedule``/``at``/``insert``.  The product
:class:`repro.network.interconnect.Interconnect` keeps only the
calendar-queue ``send_call``.
"""

from __future__ import annotations

from typing import Callable

from repro.common.config import SystemConfig
from repro.common.types import NodeId

from tests.oracles.events import ReferenceEventQueue


class ReferenceInterconnect:
    """Delivers callbacks across nodes with Table 1 latencies."""

    def __init__(self, config: SystemConfig, events: ReferenceEventQueue) -> None:
        self._config = config
        self._events = events
        self._recv_free = [0] * config.num_nodes
        self.messages_sent = 0
        # Flat copies for the per-message fast path (send_call): one
        # attribute fetch instead of a config chase per message.
        self._network_cycles = config.network_cycles
        self._ni_cycles = config.ni_cycles

    def send(
        self, src: NodeId, dst: NodeId, fn: Callable[[], None]
    ) -> None:
        """Deliver ``fn`` at ``dst`` after network + NI processing.

        ``src == dst`` models a processor operating on its own node
        (no network traversal, no NI occupancy).
        """
        if src == dst:
            self._events.schedule(0, fn)
            return
        self.messages_sent += 1
        arrival = self._events.now + self._config.network_cycles
        start = max(arrival, self._recv_free[dst])
        done = start + self._config.ni_cycles
        self._recv_free[dst] = done
        self._events.at(done, fn)

    def send_call(
        self, src: NodeId, dst: NodeId, handler: Callable, *args
    ) -> None:
        """Deliver ``handler(*args)`` at ``dst`` — the fast engine's path.

        Identical latency and NI-contention model as :meth:`send`, but
        the event is a ``(handler, args)`` pair, so the caller does not
        allocate a closure per message.  Delivery order relative to
        :meth:`send` is preserved (both insert through the same queue).
        """
        events = self._events
        if src == dst:
            events.insert(events.now, handler, args)
            return
        self.messages_sent += 1
        arrival = events.now + self._network_cycles
        recv_free = self._recv_free
        start = recv_free[dst]
        if arrival > start:
            start = arrival
        done = start + self._ni_cycles
        recv_free[dst] = done
        events.insert(done, handler, args)
