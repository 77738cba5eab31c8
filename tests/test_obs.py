"""Tests for the typed event bus and the event taxonomy."""

import dataclasses

import pytest

from repro.obs import EventBus
from repro.obs.events import (EVENT_TYPES, ChunkDownloaded, PacketSent,
                              StallStart, TraceEvent, event_from_dict,
                              event_to_dict, fast_ctor, new_packet_sent)


class TestSubscription:
    def test_typed_subscriber_sees_only_its_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(PacketSent, seen.append)
        bus.publish(PacketSent(1.0, "wifi", 100.0))
        bus.publish(StallStart(2.0))
        assert seen == [PacketSent(1.0, "wifi", 100.0)]

    def test_wildcard_subscriber_sees_everything(self):
        bus = EventBus()
        seen = []
        bus.subscribe_all(seen.append)
        bus.publish(PacketSent(1.0, "wifi", 100.0))
        bus.publish(StallStart(2.0))
        assert [type(e).__name__ for e in seen] == ["PacketSent",
                                                    "StallStart"]

    def test_delivery_order_typed_before_wildcard(self):
        bus = EventBus()
        order = []
        bus.subscribe(StallStart, lambda e: order.append("typed1"))
        bus.subscribe_all(lambda e: order.append("wild"))
        bus.subscribe(StallStart, lambda e: order.append("typed2"))
        bus.publish(StallStart(0.0))
        assert order == ["typed1", "typed2", "wild"]

    def test_unsubscribe(self):
        bus = EventBus()
        seen = []
        handler = bus.subscribe(StallStart, seen.append)
        bus.publish(StallStart(0.0))
        bus.unsubscribe(StallStart, handler)
        bus.publish(StallStart(1.0))
        assert len(seen) == 1
        # Unsubscribing twice is a no-op.
        bus.unsubscribe(StallStart, handler)

    def test_subscribe_rejects_non_event_types(self):
        bus = EventBus()
        with pytest.raises(TypeError):
            bus.subscribe(dict, lambda e: None)
        with pytest.raises(TypeError):
            bus.subscribe(PacketSent(0.0, "wifi", 1.0), lambda e: None)

    def test_subscriber_count_and_published(self):
        bus = EventBus()
        bus.subscribe(StallStart, lambda e: None)
        bus.subscribe_all(lambda e: None)
        assert bus.subscriber_count(StallStart) == 2
        assert bus.subscriber_count(PacketSent) == 1
        assert bus.subscriber_count() == 2
        bus.publish(StallStart(0.0))
        assert bus.published == 1

    def test_handlers_may_publish_depth_first(self):
        bus = EventBus()
        order = []
        bus.subscribe(StallStart,
                      lambda e: (order.append("stall"),
                                 bus.publish(PacketSent(e.time, "wifi", 1.0))))
        bus.subscribe(PacketSent, lambda e: order.append("packet"))
        bus.subscribe_all(lambda e: order.append(type(e).__name__))
        bus.publish(StallStart(0.0))
        # The nested PacketSent dispatch completes before StallStart's
        # wildcard delivery.
        assert order == ["stall", "packet", "PacketSent", "StallStart"]

    def test_subscription_changes_take_effect_next_publish(self):
        bus = EventBus()
        seen = []

        def late(e):
            seen.append("late")

        bus.subscribe(StallStart,
                      lambda e: bus.subscribe(StallStart, late))
        bus.publish(StallStart(0.0))
        assert seen == []
        bus.publish(StallStart(1.0))
        assert seen == ["late"]


class TestEventTaxonomy:
    def test_registry_is_complete(self):
        # Every concrete TraceEvent subclass in the module is registered
        # under its class name.
        import repro.obs.events as mod
        concrete = {name: obj for name, obj in vars(mod).items()
                    if isinstance(obj, type) and issubclass(obj, TraceEvent)
                    and obj is not TraceEvent}
        assert EVENT_TYPES == concrete

    def test_events_are_frozen(self):
        event = PacketSent(1.0, "wifi", 100.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 2.0

    def test_round_trip_every_type(self):
        for name, cls in EVENT_TYPES.items():
            kwargs = {}
            for spec in dataclasses.fields(cls):
                if spec.name == "time":
                    kwargs[spec.name] = 1.5
                elif spec.type in ("str",):
                    kwargs[spec.name] = "wifi"
                elif "Mapping" in str(spec.type) or "Dict" in str(spec.type):
                    kwargs[spec.name] = {"wifi": 10.0}
                elif spec.type == "bool":
                    kwargs[spec.name] = True
                elif spec.type == "float":
                    kwargs[spec.name] = 0.125
                else:
                    kwargs[spec.name] = 3
            event = cls(**kwargs)
            record = event_to_dict(event)
            assert record["type"] == name
            assert event_from_dict(record) == event

    def test_unknown_type_raises(self):
        with pytest.raises(ValueError, match="unknown trace event"):
            event_from_dict({"type": "NoSuchEvent", "time": 0.0})

    def test_malformed_record_raises(self):
        with pytest.raises(ValueError, match="malformed"):
            event_from_dict({"type": "PacketSent", "time": 0.0,
                             "bogus_field": 1})


class TestFastCtor:
    def test_matches_normal_construction(self):
        assert (new_packet_sent(1.0, "wifi", 100.0, 2)
                == PacketSent(1.0, "wifi", 100.0, 2))

    def test_instances_stay_frozen(self):
        event = new_packet_sent(1.0, "wifi", 100.0, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.num_bytes = 0.0

    def test_works_for_any_event_class(self):
        ctor = fast_ctor(ChunkDownloaded)
        fields = [spec.name for spec in dataclasses.fields(ChunkDownloaded)]
        values = [1.0, 2, 3, 4.0, 5.0, 6.0, 7.0, {"wifi": 8.0}, 9.0, 10.0]
        assert len(fields) == len(values)
        assert ctor(*values) == ChunkDownloaded(*values)
