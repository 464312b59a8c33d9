"""The timed participant RPC must never drop an RTT observation.

GeoTP's latency monitor learns passively from every commit-ack round trip; a
reply event that was already processed when ``timed_request_participant``
inspected it used to lose its sample silently (``event.callbacks is None``).
"""

from repro.middleware.middleware import MiddlewareBase, ParticipantHandle
from repro.sim import Environment


class _RecordingMiddleware(MiddlewareBase):
    """Just enough middleware to drive ``timed_request_participant``."""

    def __init__(self, env, reply_event):
        # Deliberately skip MiddlewareBase.__init__: the RPC timing path only
        # needs the clock and the two methods stubbed below.
        self.env = env
        self._reply_event = reply_event
        self.rtt_samples = []

    def request_participant(self, handle, msg_type, payload):
        return self._reply_event

    def record_network_rtt(self, participant, rtt_ms):
        self.rtt_samples.append((participant, rtt_ms))


HANDLE = ParticipantHandle(name="ds0", endpoint="ds0")


def test_pending_reply_records_rtt_when_the_event_fires():
    env = Environment()
    reply = env.event()
    middleware = _RecordingMiddleware(env, reply)
    middleware.timed_request_participant(HANDLE, "xa_prepare", {})
    assert middleware.rtt_samples == []  # nothing observed yet
    reply.succeed({"status": "ok"})
    env.run(until=27.0)
    assert middleware.rtt_samples == [("ds0", 0.0)]


def test_already_processed_reply_still_records_a_sample():
    env = Environment()
    reply = env.event()
    reply.succeed({"status": "ok"})
    env.run(until=5.0)  # the event is processed: its callback list is gone
    assert reply.callbacks is None
    middleware = _RecordingMiddleware(env, reply)
    middleware.timed_request_participant(HANDLE, "xa_commit", {})
    assert middleware.rtt_samples == [("ds0", 0.0)]


def test_sample_reflects_elapsed_simulated_time():
    env = Environment()
    reply = env.event()
    middleware = _RecordingMiddleware(env, reply)

    def scenario():
        middleware.timed_request_participant(HANDLE, "xa_prepare", {})
        yield env.timeout(13.0)
        reply.succeed({"status": "ok"})
        yield env.timeout(1.0)

    env.process(scenario())
    env.run(until=20.0)
    assert middleware.rtt_samples == [("ds0", 13.0)]
