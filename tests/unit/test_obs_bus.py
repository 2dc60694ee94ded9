"""Unit tests for the observability event bus."""

from repro.obs import KINDS, EventBus


class TestSubscription:
    def test_emit_reaches_subscribers_in_order(self):
        bus = EventBus()
        got = []
        bus.subscribe("upgraded", lambda c, p, f: got.append(("a", c, p)))
        bus.subscribe("upgraded", lambda c, p, f: got.append(("b", c, p)))
        bus.emit("upgraded", 10, 3, lane=0)
        assert got == [("a", 10, 3), ("b", 10, 3)]

    def test_emit_without_subscribers_is_silent(self):
        bus = EventBus()
        bus.emit("upgraded", 1, 2)
        assert bus.emitted == 0

    def test_fields_payload_delivered(self):
        bus = EventBus()
        seen = {}
        bus.subscribe("ejected", lambda c, p, f: seen.update(f))
        bus.emit("ejected", 5, 9, dst=3, measured=True, latency=12)
        assert seen == {"dst": 3, "measured": True, "latency": 12}

    def test_default_pid_is_minus_one(self):
        bus = EventBus()
        pids = []
        bus.subscribe("lane_slot", lambda c, p, f: pids.append(p))
        bus.emit("lane_slot", 64, slot=1)
        assert pids == [-1]

    def test_unsubscribe(self):
        bus = EventBus()
        got = []
        fn = lambda c, p, f: got.append(c)          # noqa: E731
        bus.subscribe("dropped", fn)
        bus.unsubscribe("dropped", fn)
        bus.emit("dropped", 1, 0)
        assert got == []
        assert bus.subscriber_count("dropped") == 0
        bus.unsubscribe("dropped", fn)              # idempotent
        bus.unsubscribe("never-subscribed", fn)     # unknown kind ok

    def test_subscriber_count(self):
        bus = EventBus()
        bus.subscribe("generated", lambda c, p, f: None)
        bus.subscribe("generated", lambda c, p, f: None)
        bus.subscribe("ejected", lambda c, p, f: None)
        assert bus.subscriber_count("generated") == 2
        assert bus.subscriber_count("ejected") == 1
        assert bus.subscriber_count() == 3

    def test_emitted_counts_delivered_emissions(self):
        bus = EventBus()
        bus.subscribe("fault", lambda c, p, f: None)
        bus.emit("fault", 1, kind="link_fail")
        bus.emit("fault", 2, kind="recovered")
        bus.emit("generated", 3, 0)         # nobody listening: not counted
        assert bus.emitted == 2

    def test_custom_kinds_allowed(self):
        bus = EventBus()
        got = []
        bus.subscribe("my_scheme_event", lambda c, p, f: got.append(f))
        bus.emit("my_scheme_event", 7, probe=4)
        assert got == [{"probe": 4}]

    def test_stock_kind_list_is_complete(self):
        assert set(KINDS) == {
            "generated", "injected", "ejected", "upgraded", "bounced",
            "bounce_returned", "dropped", "regenerated", "lane_slot",
            "prime_rotation", "fault",
        }
