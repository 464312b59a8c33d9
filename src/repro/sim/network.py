"""Point-to-point network model.

The model mirrors the paper's deployment: a database middleware host and a set
of geo-distributed data source hosts connected by WAN links of very different
round-trip times, plus LAN links between a geo-agent and its co-located data
source.  Nodes are named endpoints, each with one message handler (its
:class:`Inbox`); the :class:`Network` routes messages between them applying the
per-link :class:`~repro.sim.latency.LatencyModel` and calls the recipient's
handler at delivery time.

Two communication styles are supported:

* one-way ``send`` — deliver a :class:`Message` to the destination's handler
  after the one-way link delay (used for asynchronous notifications such as the
  decentralized prepare votes and early-abort messages);
* ``request`` — RPC-style: the caller gets an event that fires with the reply
  value after the full round trip plus the receiver's processing time.

Fault injection (:mod:`repro.recovery.failures`) can cut a node's links or a
single link and degrade link delays.  A delivery across a cut is parked and
re-sent with a fresh link delay when the cut heals; no message is ever
discarded, so an RPC caller blocked by an outage resumes after the heal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.sim._kernel.environment import Environment
from repro.sim._kernel.events import PENDING, Event
from repro.sim.latency import ConstantLatency, LatencyModel


@dataclass(slots=True)
class Message:
    """A network message between two named nodes."""

    sender: str
    recipient: str
    msg_type: str
    payload: Any = None
    #: Event to trigger on the sender's side when the recipient replies.
    reply_event: Optional[Event] = None


class Inbox:
    """A node's message handler: the network calls ``handler(message)`` once
    per delivered message, at its delivery time."""

    __slots__ = ("handler",)

    def __init__(self) -> None:
        self.handler: Optional[Callable[[Message], None]] = None

    def set_consumer(self, fn: Callable[[Message], None]) -> None:
        """Install ``fn`` as the node's handler."""
        self.handler = fn


class NetworkStats:
    """Aggregate counters of network activity (messages and bytes proxied)."""

    __slots__ = ("messages_sent", "messages_by_type", "messages_parked")

    def __init__(self) -> None:
        self.messages_sent = 0
        self.messages_by_type: Dict[str, int] = {}
        #: Deliveries held back by an active outage/partition (released on heal).
        self.messages_parked = 0


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
        #: Nodes whose every link, in either direction, is cut (a region
        #: outage).
        self.blocked_nodes: Set[str] = set()
        #: Cut directed (src, dst) links (a network partition).
        self.blocked_links: Set[Tuple[str, str]] = set()
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

    def block_key(self, src: str, dst: str) -> Optional[Tuple]:
        """The park key of the disruption blocking ``src -> dst``, if any."""
        nodes = self.blocked_nodes
        if src in nodes:
            return ("node", src)
        if dst in nodes:
            return ("node", dst)
        if (src, dst) in self.blocked_links:
            return ("link", (src, dst))
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
        self._inboxes: Dict[str, Inbox] = {}
        self.stats = NetworkStats()
        #: Active disruptions, or None while the network is healthy (the
        #: common case — the hot send path checks only this attribute).
        self._faults: Optional[_FaultState] = None

    # ---------------------------------------------------------------- wiring
    def register_node(self, name: str) -> Inbox:
        """Create (or return) the inbox for node ``name``."""
        inbox = self._inboxes.get(name)
        if inbox is None:
            self._inboxes[name] = inbox = Inbox()
        return inbox

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
        """Unplug every handler (they are bound methods of the nodes, which in
        turn hold this network) and forget parked deliveries."""
        for inbox in self._inboxes.values():
            inbox.handler = None
        self._faults = None

    # ------------------------------------------------------------ disruptions
    def _fault_state(self) -> _FaultState:
        if self._faults is None:
            self._faults = _FaultState()
        return self._faults

    def _maybe_clear_faults(self) -> None:
        if self._faults is not None and self._faults.empty():
            self._faults = None

    def disrupt_node(self, name: str) -> None:
        """Cut every link touching ``name`` (region outage semantics).

        Affected deliveries are parked until :meth:`restore_node`.
        """
        self._fault_state().blocked_nodes.add(name)

    def restore_node(self, name: str) -> None:
        """Lift a node outage and release its parked deliveries in order."""
        faults = self._faults
        if faults is None or name not in faults.blocked_nodes:
            return
        faults.blocked_nodes.remove(name)
        self._release_parked(("node", name))

    def disrupt_link(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Cut the ``src -> dst`` link (and its reverse when ``symmetric``)."""
        links = self._fault_state().blocked_links
        links.add((src, dst))
        if symmetric:
            links.add((dst, src))

    def restore_link(self, src: str, dst: str, symmetric: bool = True) -> None:
        """Heal a link partition and release its parked deliveries in order."""
        faults = self._faults
        if faults is None:
            return
        for link in ((src, dst), (dst, src)) if symmetric else ((src, dst),):
            if link in faults.blocked_links:
                faults.blocked_links.remove(link)
                self._release_parked(("link", link))
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
        was parked and must not be scheduled by the caller.
        """
        faults = self._faults
        key = faults.block_key(src, dst)
        if key is not None:
            self.stats.messages_parked += 1
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
                    continue  # re-parked under another fault
            if delay == 0.0:
                env._soon.append((fn, args))
            else:
                env.call_at(delay, fn, *args)

    # ------------------------------------------------------------- messaging
    def send(self, message: Message) -> float:
        """Deliver ``message`` after the one-way link delay; return the delay."""
        inbox = self._inboxes.get(message.recipient)
        if inbox is None:
            raise KeyError(f"unknown network node {message.recipient!r}")
        deliver = inbox.handler
        if deliver is None:
            raise RuntimeError(
                f"network node {message.recipient!r} has no message handler")
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

        # Allocation-free delivery: the handler plus args instead of a
        # per-message closure.  Zero-delay links (self-sends and colocated
        # nodes) skip the heap entirely via the same-time microqueue.
        if self._faults is not None:
            adjusted = self._intercept(message.sender, message.recipient,
                                       delay, deliver, (message,))
            if adjusted is None:
                return delay  # parked: the nominal delay
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
            model = self._links.get((original.recipient, original.sender),
                                    self.default_model)
            delay = model.sample_one_way(self.env.now)

        if self._faults is not None:
            # Replies travel recipient -> sender and honour disruptions too:
            # an RPC caught by an outage mid-flight stalls on the
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
        self.env: Environment = network.env
        self.inbox: Inbox = network.register_node(name)

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
        """Answer an RPC message our handler was given."""
        self.network.deliver_reply(message, value)

    def rtt_to(self, other: str) -> float:
        """Nominal RTT to another node at the current simulated time."""
        return self.network.rtt(self.name, other)
