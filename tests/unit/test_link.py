"""Unit tests for links (serialization, reservations, pre-emption) and VC
slots."""

import pytest

from repro.network.link import Link, ReservationConflict, VCSlot


def make_link():
    return Link(src=0, src_port=2, dst=1, dst_port=4)


class TestVCSlot:
    def test_initially_free(self):
        s = VCSlot(port=1, vc=0)
        assert s.is_free(0)

    def test_not_free_when_occupied(self):
        s = VCSlot(1, 0)
        s.pkt = object()
        assert not s.is_free(0)

    def test_not_free_until_credit_returns(self):
        s = VCSlot(1, 0)
        s.pkt = None
        s.free_at = 10
        assert not s.is_free(9)
        assert s.is_free(10)

    def test_fill_and_vacate_without_a_router(self):
        """A slot outside any router's VC array (MinBD's side buffer)
        has no owner whose wake bound to keep, and still works; so does
        a waiter without one."""
        s, waiter = VCSlot(1, 0), VCSlot(2, 0)
        assert s.owner is None
        pkt = object()
        s.fill(pkt, 5)
        assert (s.pkt, s.ready_at, s.is_free(100)) == (pkt, 5, False)
        waiter.retry_at = 100
        s.waiters = [waiter]
        s.vacate(7)
        assert s.pkt is None and s.free_at == 7 and s.waiters is None
        assert waiter.retry_at == 7


class TestReservations:
    def test_no_conflict_on_empty_link(self):
        link = make_link()
        assert not link.fp_conflict(0, 5)

    def test_overlap_detection(self):
        link = make_link()
        link.reserve_fp(10, 15)
        assert link.fp_conflict(14, 16)
        assert link.fp_conflict(5, 11)
        assert link.fp_conflict(11, 13)
        assert not link.fp_conflict(15, 20)
        assert not link.fp_conflict(5, 10)

    def test_double_reservation_raises(self):
        link = make_link()
        link.reserve_fp(10, 15)
        with pytest.raises(ReservationConflict):
            link.reserve_fp(12, 14)

    def test_adjacent_reservations_allowed(self):
        link = make_link()
        link.reserve_fp(10, 15)
        link.reserve_fp(15, 20)
        link.reserve_fp(5, 10)
        assert len(link.fp_windows) == 3

    def test_prune_drops_expired_windows(self):
        link = make_link()
        link.reserve_fp(0, 5)
        link.reserve_fp(10, 15)
        link.prune(7)
        assert link.fp_windows == [(10, 15)]


class TestPreemption:
    def test_inflight_transfer_delayed_by_reservation(self):
        link = make_link()
        dst_slot = VCSlot(4, 0)
        src_slot = VCSlot(2, 0)
        dst_slot.ready_at = 7
        src_slot.free_at = 11
        link.start_transfer(5, 5, dst_slot, src_slot)   # busy until 10
        link.reserve_fp(6, 9)                           # 3-cycle window
        assert dst_slot.ready_at == 7 + 3
        assert src_slot.free_at == 11 + 3
        assert link.busy_until == 10 + 3

    def test_reservation_after_transfer_end_no_delay(self):
        link = make_link()
        dst_slot = VCSlot(4, 0)
        dst_slot.ready_at = 7
        link.start_transfer(5, 5, dst_slot, None)
        link.reserve_fp(10, 12)    # starts exactly at transfer end
        assert dst_slot.ready_at == 7

    def test_prune_clears_finished_transfer(self):
        link = make_link()
        dst_slot = VCSlot(4, 0)
        link.start_transfer(0, 3, dst_slot, None)
        link.prune(3)
        assert link.inflight is None

    def test_transfer_sets_busy(self):
        link = make_link()
        link.start_transfer(4, 5, VCSlot(4, 0), None)
        assert link.busy_until == 9
