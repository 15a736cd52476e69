"""Eviction-index regression tests and buffer implementation parity.

The heap-indexed :class:`~repro.net.buffer.MessageBuffer` must (a) never fall
back to a full-buffer sort on the hot path — the regression the issue named
was one full sort per eviction loop — and (b) behave identically to the
:class:`~repro.testing.reference.ReferenceMessageBuffer` oracle under
randomized churn, for every drop policy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.buffer import BufferFullError, DropPolicy, MessageBuffer
from repro.net.message import Message
from repro.testing.reference import ReferenceMessageBuffer


def msg(mid, size=100, created=0.0, ttl=1000.0, received=None, dest=1):
    message = Message(str(mid), 0, dest, size, created, ttl)
    if received is not None:
        message.received_time = received
    return message


# ------------------------------------------------------------- regression
def test_add_never_sorts_the_buffer(monkeypatch):
    """The eviction loop must use the maintained index, not a full sort."""
    buffer = MessageBuffer(capacity=1000)

    def boom(self):  # pragma: no cover - failing path
        raise AssertionError("add() fell back to a full-buffer sort")

    monkeypatch.setattr(MessageBuffer, "_eviction_order", boom)
    for i in range(50):
        buffer.add(msg(i, size=100, received=float(i)))
        buffer.drop_expired(now=float(i))
    assert buffer.full_sorts == 0
    assert len(buffer) == 10  # 1000 B capacity / 100 B messages


def test_eviction_work_is_proportional_to_evictions():
    """Heap pops stay O(evicted + expired), not O(n log n) per add."""
    buffer = MessageBuffer(capacity=10 * 100)
    total_evicted = 0
    for i in range(500):
        total_evicted += len(buffer.add(msg(i, size=100, received=float(i))))
        buffer.drop_expired(now=float(i))
    # every add beyond the first ten evicts exactly one message; each
    # eviction costs one evict-heap pop, and each expiry sweep that removes
    # nothing costs zero pops (only a peek).  Allow the stale-entry slack.
    assert total_evicted == 490
    assert buffer.heap_pops <= 2 * total_evicted + 20
    assert buffer.full_sorts == 0


def test_drop_expired_is_cheap_when_nothing_expires():
    buffer = MessageBuffer(capacity=float("inf"))
    for i in range(100):
        buffer.add(msg(i, created=0.0, ttl=10_000.0))
    pops_before = buffer.heap_pops
    for tick in range(100):
        assert buffer.drop_expired(now=float(tick)) == []
    assert buffer.heap_pops == pops_before  # peeks only, no pops


def test_messages_for_destination_index():
    buffer = MessageBuffer(capacity=float("inf"))
    buffer.add(msg("a", dest=1))
    buffer.add(msg("b", dest=2))
    buffer.add(msg("c", dest=1))
    assert [m.message_id for m in buffer.messages_for_destination(1)] == ["a", "c"]
    assert [m.message_id for m in buffer.messages_for_destination(2)] == ["b"]
    assert buffer.messages_for_destination(9) == []
    buffer.remove("a")
    assert [m.message_id for m in buffer.messages_for_destination(1)] == ["c"]
    buffer.clear()
    assert buffer.messages_for_destination(1) == []


def test_heaps_do_not_grow_without_bound_under_turnover():
    """Stale lazy-deletion entries are compacted away on high turnover."""
    # unbounded buffers never evict, so they index nothing in the evict heap
    unbounded = MessageBuffer()
    for i in range(500):
        unbounded.add(msg(i, ttl=10.0, created=float(i)))
        unbounded.drop_expired(now=float(i))
    assert len(unbounded._evict_heap) == 0
    assert len(unbounded._expiry_heap) <= 64 + 4 * len(unbounded)
    # bounded buffers with remove() churn compact their stale entries
    bounded = MessageBuffer(capacity=100_000)
    for i in range(2000):
        bounded.add(msg(i, size=100, received=float(i)))
        if i >= 5:
            bounded.remove(f"{i - 5}")
    assert len(bounded) == 5
    assert len(bounded._evict_heap) <= 64 + 4 * len(bounded)


def test_readd_after_remove_uses_fresh_priority():
    """Stale heap entries from removed/re-added ids must not evict wrongly."""
    buffer = MessageBuffer(capacity=300, drop_policy=DropPolicy.OLDEST_RECEIVED)
    buffer.add(msg("x", size=100, received=1.0))
    buffer.add(msg("y", size=100, received=2.0))
    buffer.remove("x")
    # re-add "x" as the *newest* message: the stale (received=1.0) heap entry
    # must be ignored and "y" evicted first
    buffer.add(msg("x", size=100, received=3.0))
    buffer.add(msg("z", size=100, received=4.0))
    evicted = buffer.add(msg("w", size=200, received=5.0))
    assert [m.message_id for m in evicted] == ["y", "x"]


# ----------------------------------------------------------------- parity
@st.composite
def churn_ops(draw):
    policy = draw(st.sampled_from([p for p in DropPolicy
                                   if p is not DropPolicy.NO_DROP]))
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["add", "remove", "expire"]),
                  st.integers(0, 39),
                  st.integers(50, 400),     # size
                  st.integers(0, 50),       # created / received offset
                  st.integers(1, 500)),     # ttl
        min_size=1, max_size=80))
    return policy, ops


@given(churn_ops())
@settings(max_examples=80)
def test_indexed_buffer_matches_reference_under_churn(scenario):
    policy, ops = scenario
    fast = MessageBuffer(capacity=1000, drop_policy=policy)
    ref = ReferenceMessageBuffer(capacity=1000, drop_policy=policy)
    clock = 0.0
    for kind, ident, size, offset, ttl in ops:
        clock += 1.0
        if kind == "add":
            mid = f"m{ident}"
            if mid in fast:
                continue
            outcomes = []
            for buffer in (fast, ref):
                message = msg(mid, size=size, created=clock - offset,
                              ttl=float(ttl), received=clock, dest=ident % 3)
                try:
                    outcomes.append([m.message_id for m in buffer.add(message)])
                except BufferFullError:
                    outcomes.append("full")
            assert outcomes[0] == outcomes[1]
        elif kind == "remove":
            a = fast.remove(f"m{ident}")
            b = ref.remove(f"m{ident}")
            assert (a is None) == (b is None)
        else:
            dropped_fast = {m.message_id for m in fast.drop_expired(clock)}
            dropped_ref = {m.message_id for m in ref.drop_expired(clock)}
            assert dropped_fast == dropped_ref
        assert fast.message_ids() == ref.message_ids()
        assert fast.occupancy == ref.occupancy
        assert sorted(m.message_id for m in fast.messages_for_destination(0)) \
            == sorted(m.message_id for m in ref.messages_for_destination(0))


def test_protected_parity_under_eviction():
    def protect(message):
        return message.message_id.startswith("keep")

    fast = MessageBuffer(capacity=300, protected=protect)
    ref = ReferenceMessageBuffer(capacity=300, protected=protect)
    for buffer in (fast, ref):
        buffer.add(msg("keep-1", size=100, received=1.0))
        buffer.add(msg("a", size=100, received=2.0))
        buffer.add(msg("b", size=100, received=3.0))
    evicted_fast = [m.message_id for m in fast.add(msg("c", 150, received=4.0))]
    evicted_ref = [m.message_id for m in ref.add(msg("c", 150, received=4.0))]
    assert evicted_fast == evicted_ref == ["a", "b"]
    assert "keep-1" in fast and "keep-1" in ref
    # the protected entry survives in the index for later evictions
    evicted = fast.add(msg("d", size=100, received=5.0))
    assert [m.message_id for m in evicted] == ["c"]
    assert "keep-1" in fast


def test_cannot_make_room_raises_after_partial_eviction_parity():
    fast = MessageBuffer(capacity=300, protected=lambda m: m.message_id == "p")
    ref = ReferenceMessageBuffer(capacity=300,
                                 protected=lambda m: m.message_id == "p")
    for buffer in (fast, ref):
        buffer.add(msg("p", size=200, received=1.0))
        buffer.add(msg("a", size=100, received=2.0))
        with pytest.raises(BufferFullError):
            buffer.add(msg("big", size=250, received=3.0))
    # mirror-ONE semantics: the eviction happened, the incoming was refused
    assert fast.message_ids() == ref.message_ids() == ["p"]
