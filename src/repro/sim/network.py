"""Point-to-point network model.

The model mirrors the paper's deployment: a database middleware host and a set
of geo-distributed data source hosts connected by WAN links of very different
round-trip times, plus LAN links between a geo-agent and its co-located data
source.  Nodes are named endpoints with an inbox; the :class:`Network` routes
messages between them applying the per-link :class:`~repro.sim.latency.LatencyModel`.

Two communication styles are supported:

* one-way ``send`` — deliver a :class:`Message` to the destination inbox after
  the one-way link delay (used for asynchronous notifications such as the
  decentralized prepare votes and early-abort messages);
* ``request`` — RPC-style: the caller gets an event that fires with the reply
  value after the full round trip plus the receiver's processing time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Dict, Optional, Tuple

from repro.sim._kernel.environment import Environment
from repro.sim._kernel.events import PENDING, Event
from repro.sim._kernel.resources import Store
from repro.sim.latency import ConstantLatency, LatencyModel

_message_ids = count(1)


@dataclass(slots=True)
class Message:
    """A network message between two named nodes."""

    sender: str
    recipient: str
    msg_type: str
    payload: Any = None
    message_id: int = field(default_factory=_message_ids.__next__)
    #: Event to trigger on the sender's side when the recipient replies.
    reply_event: Optional[Event] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Message #{self.message_id} {self.msg_type} "
                f"{self.sender}->{self.recipient}>")


class NetworkStats:
    """Aggregate counters of network activity (messages and bytes proxied)."""

    __slots__ = ("messages_sent", "messages_by_type", "total_delay_ms",
                 "messages_parked", "messages_dropped")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_by_type: Dict[str, int] = {}
        self.total_delay_ms = 0.0
        #: Deliveries held back by an active outage/partition (released on heal).
        self.messages_parked = 0
        #: Deliveries discarded by a drop-mode disruption (never released).
        self.messages_dropped = 0


#: Disruption modes: ``park`` holds deliveries back and releases them on heal
#: (a transient outage — TCP retransmits eventually get through); ``drop``
#: discards them outright (callers waiting on a dropped RPC reply block until
#: some higher-level timeout fires — use only when the model has one).
PARK = "park"
DROP = "drop"


class _FaultState:
    """Active network disruptions: blocked/degraded nodes and links.

    Kept out of :class:`Network` so the fault-free hot path pays exactly one
    ``is None`` check per message; the state object only exists while the
    fault-injection subsystem (:mod:`repro.recovery.failures`) has at least one
    disruption installed.  Parked deliveries are queued per disruption key and
    re-scheduled, in park order and with a fresh link delay, when that
    disruption is lifted.
    """

    __slots__ = ("blocked_nodes", "blocked_links", "degraded_nodes", "parked")

    def __init__(self) -> None:
        #: Node name -> mode (:data:`PARK`/:data:`DROP`); blocks every link
        #: touching the node in either direction (a region outage).
        self.blocked_nodes: Dict[str, str] = {}
        #: Directed (src, dst) link -> mode (a network partition).
        self.blocked_links: Dict[Tuple[str, str], str] = {}
        #: Node name -> delay multiplier applied to every touching link.
        self.degraded_nodes: Dict[str, float] = {}
        #: Disruption key -> parked ``(src, dst, delay, fn, args)`` deliveries
        #: in park order.  Keys are ``("node", name)`` or
        #: ``("link", (src, dst))``.
        self.parked: Dict[Tuple, list] = {}

    def empty(self) -> bool:
        """True once no disruption of any kind remains installed."""
        return not (self.blocked_nodes or self.blocked_links
                    or self.degraded_nodes or self.parked)

    def block_key(self, src: str, dst: str):
        """The (mode, park key) of the disruption blocking ``src -> dst``, if any."""
        mode = self.blocked_nodes.get(src)
        if mode is not None:
            return mode, ("node", src)
        mode = self.blocked_nodes.get(dst)
        if mode is not None:
            return mode, ("node", dst)
        mode = self.blocked_links.get((src, dst))
        if mode is not None:
            return mode, ("link", (src, dst))
        return None

    def delay_factor(self, src: str, dst: str) -> float:
        """Combined latency-degradation multiplier for ``src -> dst``."""
        factor = 1.0
        node_factor = self.degraded_nodes.get(src)
        if node_factor is not None:
            factor *= node_factor
        node_factor = self.degraded_nodes.get(dst)
        if node_factor is not None:
            factor *= node_factor
        return factor


class Network:
    """Routes messages between registered nodes with per-link latencies."""

    def __init__(self, env: Environment, default_rtt_ms: float = 0.0):
        self.env = env
        self.default_model: LatencyModel = ConstantLatency(default_rtt_ms)
        self._links: Dict[Tuple[str, str], LatencyModel] = {}
        self._inboxes: Dict[str, Store] = {}
        self.stats = NetworkStats()
        #: Active disruptions, or None while the network is healthy (the
        #: common case — the hot send path checks only this attribute).
        self._faults: Optional[_FaultState] = None

    # ---------------------------------------------------------------- wiring
    def register_node(self, name: str) -> Store:
        """Create (or return) the inbox for node ``name``."""
        if name not in self._inboxes:
            self._inboxes[name] = Store(self.env)
        return self._inboxes[name]

    def set_link(self, src: str, dst: str, model: LatencyModel,
                 symmetric: bool = True) -> None:
        """Set the latency model for the ``src -> dst`` link."""
        self._links[(src, dst)] = model
        if symmetric:
            self._links[(dst, src)] = model

    def link_model(self, src: str, dst: str) -> LatencyModel:
        """The latency model in effect for ``src -> dst``."""
        return self._links.get((src, dst), self.default_model)

    def rtt(self, src: str, dst: str) -> float:
        """Nominal RTT in ms between two nodes at the current time."""
        if src == dst:
            return 0.0
        return self.link_model(src, dst).rtt_at(self.env.now)

    def interface(self, name: str) -> "NetworkInterface":
        """Return a bound interface for node ``name`` (registering it)."""
        self.register_node(name)
        return NetworkInterface(self, name)

    def close(self) -> None:
        """Unplug every inbox consumer (they are bound methods of the nodes,
        which in turn hold this network) and forget parked deliveries."""
        for inbox in self._inboxes.values():
            inbox._consumer = None
        self._faults = None

    # ------------------------------------------------------------ disruptions
    def _fault_state(self) -> _FaultState:
        if self._faults is None:
            self._faults = _FaultState()
        return self._faults

    def _maybe_clear_faults(self) -> None:
        if self._faults is not None and self._faults.empty():
            self._faults = None

    def disrupt_node(self, name: str, mode: str = PARK) -> None:
        """Cut every link touching ``name`` (region outage semantics).

        ``mode=PARK`` holds affected deliveries until :meth:`restore_node`;
        ``mode=DROP`` discards them.
        """
        if mode not in (PARK, DROP):
            raise ValueError(f"unknown disruption mode {mode!r}")
        self._fault_state().blocked_nodes[name] = mode

    def restore_node(self, name: str) -> None:
        """Lift a node outage and release its parked deliveries in order."""
        faults = self._faults
        if faults is None or faults.blocked_nodes.pop(name, None) is None:
            return
        self._release_parked(("node", name))

    def disrupt_link(self, src: str, dst: str, mode: str = PARK,
                     symmetric: bool = True) -> None:
        """Cut the ``src -> dst`` link (and its reverse when ``symmetric``)."""
        if mode not in (PARK, DROP):
            raise ValueError(f"unknown disruption mode {mode!r}")
        links = self._fault_state().blocked_links
        links[(src, dst)] = mode
        if symmetric:
            links[(dst, src)] = mode

    def restore_link(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Heal a link partition and release its parked deliveries in order."""
        faults = self._faults
        if faults is None:
            return
        if faults.blocked_links.pop((src, dst), None) is not None:
            self._release_parked(("link", (src, dst)))
        if symmetric and faults.blocked_links.pop((dst, src), None) is not None:
            self._release_parked(("link", (dst, src)))
        self._maybe_clear_faults()

    def degrade_node(self, name: str, factor: float) -> None:
        """Multiply the delay of every link touching ``name`` by ``factor``.

        ``factor == 1.0`` removes the degradation (a heal).
        """
        if factor < 1.0:
            raise ValueError("degradation factor must be >= 1")
        if factor == 1.0:
            faults = self._faults
            if faults is not None:
                faults.degraded_nodes.pop(name, None)
                self._maybe_clear_faults()
            return
        self._fault_state().degraded_nodes[name] = factor

    def _intercept(self, src: str, dst: str, delay: float, fn, args):
        """Apply active disruptions to one delivery.

        Returns the (possibly degraded) delay, or ``None`` when the delivery
        was parked or dropped and must not be scheduled by the caller.
        """
        faults = self._faults
        blocked = faults.block_key(src, dst)
        if blocked is not None:
            mode, key = blocked
            stats = self.stats
            if mode == DROP:
                stats.messages_dropped += 1
            else:
                stats.messages_parked += 1
                faults.parked.setdefault(key, []).append((src, dst, delay, fn, args))
            return None
        return delay * faults.delay_factor(src, dst)

    def _release_parked(self, key: Tuple) -> None:
        faults = self._faults
        entries = faults.parked.pop(key, None)
        self._maybe_clear_faults()
        if not entries:
            return
        env = self.env
        for src, dst, delay, fn, args in entries:
            # Re-deliver after one fresh link delay from the heal time: the
            # sender's retransmission finally gets through.  Released entries
            # go back through interception, so a delivery freed by one heal
            # still honours any *other* disruption that remains active on its
            # path (overlapping outages on different targets are legal).
            if self._faults is not None:
                delay = self._intercept(src, dst, delay, fn, args)
                if delay is None:
                    continue  # re-parked under (or dropped by) another fault
            if delay == 0.0:
                env._soon.append((fn, args))
            else:
                env.call_at(delay, fn, *args)

    # ------------------------------------------------------------- messaging
    def send(self, message: Message) -> float:
        """Deliver ``message`` after the one-way link delay; return the delay."""
        if message.recipient not in self._inboxes:
            raise KeyError(f"unknown network node {message.recipient!r}")
        env = self.env
        if message.sender == message.recipient:
            delay = 0.0
        else:
            model = self._links.get((message.sender, message.recipient),
                                    self.default_model)
            delay = model.sample_one_way(env.now)
        # The stats are kept inline: one call per simulated message adds up.
        stats = self.stats
        stats.messages_sent += 1
        by_type = stats.messages_by_type
        by_type[message.msg_type] = by_type.get(message.msg_type, 0) + 1
        stats.total_delay_ms += delay

        deliver = self._inboxes[message.recipient].put
        # Allocation-free delivery: the inbox's bound ``put`` plus args
        # instead of a per-message closure.  Zero-delay links (self-sends and
        # colocated nodes) skip the heap entirely via the same-time microqueue.
        if self._faults is not None:
            adjusted = self._intercept(message.sender, message.recipient,
                                       delay, deliver, (message,))
            if adjusted is None:
                return delay  # parked or dropped; nominal delay for the stats
            delay = adjusted
        if delay == 0.0:
            env._soon.append((deliver, (message,)))
        else:
            env.call_at(delay, deliver, message)
        return delay

    def deliver_reply(self, original: Message, value: Any) -> None:
        """Send the reply for an RPC ``original`` back to its sender."""
        if original.reply_event is None:
            raise ValueError("message was not sent as a request; it has no reply event")
        if original.sender == original.recipient:
            delay = 0.0
        else:
            model = self.link_model(original.recipient, original.sender)
            delay = model.sample_one_way(self.env.now)

        if self._faults is not None:
            # Replies travel recipient -> sender and honour disruptions too:
            # an RPC caught by an outage mid-flight stalls (or dies) on the
            # reply leg exactly like a fresh message would.
            delay = self._intercept(original.recipient, original.sender, delay,
                                    self._fire_reply,
                                    (original.reply_event, value))
            if delay is None:
                return
        if delay == 0.0:
            self.env._soon.append((self._fire_reply, (original.reply_event, value)))
        else:
            self.env.call_at(delay, self._fire_reply, original.reply_event, value)

    def _fire_reply(self, reply_event: Event, value: Any) -> None:
        # Trigger *and* dispatch in one step: this callback already runs at
        # the reply's delivery time, so parking the event on the microqueue
        # for a second dispatch would only delay it within the same
        # timestamp.  (Same-timestamp reordering; equivalence-harness
        # territory.)
        if reply_event._value is not PENDING:
            return
        reply_event._ok = True
        reply_event._value = value
        callbacks = reply_event.callbacks
        if callbacks is not None:
            # Count the merged event dispatch so events_processed keeps
            # meaning "entries dispatched", replies included.
            self.env.events_processed += 1
            reply_event.callbacks = None
            for callback in callbacks:
                callback(reply_event)


class NetworkInterface:
    """A node's handle on the network: typed helpers bound to its name."""

    def __init__(self, network: Network, name: str):
        self.network = network
        self.name = name
        self.inbox: Store = network.register_node(name)

    @property
    def env(self) -> Environment:
        return self.network.env

    def send(self, recipient: str, msg_type: str, payload: Any = None) -> Message:
        """Fire-and-forget message to ``recipient``."""
        message = Message(sender=self.name, recipient=recipient,
                          msg_type=msg_type, payload=payload)
        self.network.send(message)
        return message

    def request(self, recipient: str, msg_type: str, payload: Any = None) -> Event:
        """RPC to ``recipient``; the returned event fires with the reply value."""
        reply_event = Event(self.env)
        message = Message(sender=self.name, recipient=recipient,
                          msg_type=msg_type, payload=payload,
                          reply_event=reply_event)
        self.network.send(message)
        return reply_event

    def reply(self, message: Message, value: Any) -> None:
        """Answer an RPC message previously received in our inbox."""
        self.network.deliver_reply(message, value)

    def receive(self) -> Event:
        """Event firing with the next message in our inbox."""
        return self.inbox.get()

    def rtt_to(self, other: str) -> float:
        """Nominal RTT to another node at the current simulated time."""
        return self.network.rtt(self.name, other)
