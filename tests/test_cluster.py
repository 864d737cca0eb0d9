"""Unit tests for cluster resources: FUs, windows, FIFOs, bypasses."""

import pytest

from repro.cluster import BypassNetwork, FifoIssueQueue, FUPool, IssueQueue
from repro.errors import SimulationError
from repro.isa import DynInst, Instruction, Opcode, fp_reg, make_copy_inst


def dyn(op=Opcode.ADD, seq=0, dst=5, srcs=(1,), target=None, pc=0x1000):
    return DynInst(seq, Instruction(pc, op, dst, srcs, target=target))


def int_cluster_fus():
    return FUPool(n_simple=3, has_complex_int=True, name="c0")


def fp_cluster_fus():
    return FUPool(
        n_simple=3, has_complex_int=False, n_fp_alu=3, has_fp_complex=True,
        name="c1",
    )


class TestFUPool:
    def test_simple_alu_budget(self):
        fus = int_cluster_fus()
        for i in range(3):
            d = dyn(seq=i)
            assert fus.can_issue(d, 0)
            fus.issue(d, 0)
        assert not fus.can_issue(dyn(seq=9), 0)

    def test_budget_renews_each_cycle(self):
        fus = int_cluster_fus()
        for i in range(3):
            fus.issue(dyn(seq=i), 0)
        assert fus.can_issue(dyn(seq=9), 1)

    def test_branches_and_memory_use_simple_alus(self):
        fus = int_cluster_fus()
        branch = dyn(Opcode.BEQ, dst=None, srcs=(1,), target=0x1000)
        load = dyn(Opcode.LOAD, dst=5, srcs=(1,))
        store = dyn(Opcode.STORE, dst=None, srcs=(1, 2))
        fus.issue(branch, 0)
        fus.issue(load, 0)
        fus.issue(store, 0)
        assert not fus.can_issue(dyn(seq=9), 0)

    def test_divider_unpipelined(self):
        fus = int_cluster_fus()
        div = dyn(Opcode.DIV, srcs=(1, 2))
        assert fus.can_issue(div, 0)
        fus.issue(div, 0)
        # busy for the full latency
        assert not fus.can_issue(dyn(Opcode.DIV, srcs=(1, 2)), 5)
        assert fus.can_issue(dyn(Opcode.DIV, srcs=(1, 2)), div.inst.latency)

    def test_multiplier_pipelined(self):
        fus = int_cluster_fus()
        fus.issue(dyn(Opcode.MUL, srcs=(1, 2)), 0)
        assert fus.can_issue(dyn(Opcode.MUL, srcs=(1, 2)), 1)

    def test_one_complex_unit_per_cycle(self):
        fus = int_cluster_fus()
        fus.issue(dyn(Opcode.MUL, srcs=(1, 2)), 0)
        assert not fus.can_issue(dyn(Opcode.MUL, srcs=(1, 2)), 0)

    def test_no_complex_in_fp_cluster(self):
        fus = fp_cluster_fus()
        assert not fus.supports(dyn(Opcode.MUL, srcs=(1, 2)))

    def test_no_fp_in_int_cluster(self):
        fus = int_cluster_fus()
        fadd = dyn(Opcode.FADD, dst=fp_reg(0), srcs=(fp_reg(1), fp_reg(2)))
        assert not fus.supports(fadd)

    def test_fp_alu_budget(self):
        fus = fp_cluster_fus()
        for i in range(3):
            fadd = dyn(
                Opcode.FADD, seq=i, dst=fp_reg(0), srcs=(fp_reg(1),)
            )
            assert fus.can_issue(fadd, 0)
            fus.issue(fadd, 0)
        assert not fus.can_issue(
            dyn(Opcode.FADD, seq=9, dst=fp_reg(0), srcs=(fp_reg(1),)), 0
        )

    def test_copies_need_no_fu(self):
        fus = int_cluster_fus()
        for i in range(3):
            fus.issue(dyn(seq=i), 0)
        copy = make_copy_inst(99, 5, 100)
        assert fus.can_issue(copy, 0)

    def test_baseline_fp_cluster_has_no_simple_units(self):
        fus = FUPool(n_simple=0, has_complex_int=False, n_fp_alu=3)
        assert not fus.supports(dyn())


class TestIssueQueue:
    def test_capacity_enforced(self):
        iq = IssueQueue(2)
        assert iq.insert(dyn(seq=0))
        assert iq.insert(dyn(seq=1))
        assert not iq.can_accept()
        # insert is the single guarded path: a full queue refuses rather
        # than raising, and the refused instruction is not enqueued.
        assert not iq.insert(dyn(seq=2))
        assert len(iq) == 2
        assert [d.seq for d in iq.entries_oldest_first()] == [0, 1]

    def test_age_order(self):
        iq = IssueQueue(8)
        for i in (0, 1, 2):
            iq.insert(dyn(seq=i))
        assert [d.seq for d in iq.entries_oldest_first()] == [0, 1, 2]

    def test_remove(self):
        iq = IssueQueue(8)
        a, b = dyn(seq=0), dyn(seq=1)
        iq.insert(a)
        iq.insert(b)
        iq.remove(a)
        assert [d.seq for d in iq.entries_oldest_first()] == [1]

    def test_remove_missing_raises(self):
        iq = IssueQueue(8)
        with pytest.raises(SimulationError):
            iq.remove(dyn())

    def test_zero_capacity_rejected(self):
        with pytest.raises(SimulationError):
            IssueQueue(0)


class TestFifoIssueQueue:
    def test_dependent_chain_shares_fifo(self):
        iq = FifoIssueQueue(n_fifos=2, depth=4)
        producer = dyn(seq=0)
        consumer = dyn(seq=1, dst=6, srcs=(5,))
        consumer.providers = [producer]
        iq.insert(producer)
        iq.insert(consumer)
        # Only the head (producer) is an issue candidate.
        assert iq.entries_oldest_first() == [producer]
        assert len(iq) == 2

    def test_independent_instructions_get_new_fifos(self):
        iq = FifoIssueQueue(n_fifos=2, depth=4)
        a, b = dyn(seq=0), dyn(seq=1)
        iq.insert(a)
        iq.insert(b)
        assert set(iq.entries_oldest_first()) == {a, b}

    def test_placement_fails_when_no_fifo_usable(self):
        iq = FifoIssueQueue(n_fifos=1, depth=1)
        assert iq.insert(dyn(seq=0))
        unrelated = dyn(seq=1)
        assert not iq.can_accept()
        assert iq.placement_for(unrelated) is None
        assert not iq.insert(unrelated)
        assert len(iq) == 1

    def test_heads_sorted_by_age(self):
        iq = FifoIssueQueue(n_fifos=4, depth=4)
        for i in (2, 0, 1):
            iq.insert(dyn(seq=i))
        heads = iq.entries_oldest_first()
        assert [d.seq for d in heads] == sorted(d.seq for d in heads)

    def test_remove_non_head_rejected(self):
        iq = FifoIssueQueue(n_fifos=1, depth=4)
        producer = dyn(seq=0)
        consumer = dyn(seq=1, srcs=(5,))
        consumer.providers = [producer]
        iq.insert(producer)
        iq.insert(consumer)
        with pytest.raises(SimulationError):
            iq.remove(consumer)

    def test_can_accept_counts_empty_fifos(self):
        iq = FifoIssueQueue(n_fifos=2, depth=1)
        assert iq.can_accept(2)
        assert not iq.can_accept(3)
        iq.insert(dyn(seq=0))
        assert iq.can_accept(1)
        assert not iq.can_accept(2)

    def test_chainable_tail_does_not_admit(self):
        # Admission runs before rename, so it asks for empty FIFOs only;
        # once admitted, insert still chains by the real providers.
        iq = FifoIssueQueue(n_fifos=2, depth=4)
        a, b = dyn(seq=0), dyn(seq=1)
        iq.insert(a)
        iq.insert(b)
        consumer = dyn(seq=2, dst=6, srcs=(5,))
        consumer.providers = [a]
        assert not iq.can_accept()
        assert iq.placement_for(consumer) == 0

    def test_full_fifo_does_not_chain(self):
        iq = FifoIssueQueue(n_fifos=2, depth=1)
        producer = dyn(seq=0)
        iq.insert(producer)
        consumer = dyn(seq=1, dst=6, srcs=(5,))
        consumer.providers = [producer]
        assert iq.placement_for(consumer) == 1
        iq.insert(consumer)
        third = dyn(seq=2, dst=7, srcs=(6,))
        third.providers = [consumer]
        assert not iq.insert(third)

    def test_lowest_chaining_fifo_wins(self):
        iq = FifoIssueQueue(n_fifos=3, depth=4)
        a, b = dyn(seq=0), dyn(seq=1)
        iq.insert(a)
        iq.insert(b)
        consumer = dyn(seq=2, dst=6, srcs=(5, 6))
        consumer.providers = [b, a]
        assert iq.placement_for(consumer) == 0

    def test_emptied_fifo_is_reused_lowest_first(self):
        iq = FifoIssueQueue(n_fifos=3, depth=4)
        a, b, c = dyn(seq=0), dyn(seq=1), dyn(seq=2)
        for d in (a, b, c):
            iq.insert(d)
        iq.remove(c)
        iq.remove(a)
        assert iq.can_accept(2)
        assert iq.placement_for(dyn(seq=3)) == 0

    def test_tails_producing(self):
        iq = FifoIssueQueue(n_fifos=2, depth=4)
        producer = dyn(seq=0)
        iq.insert(producer)
        assert iq.tails_producing(producer)
        assert not iq.tails_producing(dyn(seq=5))
        # A consumer chained behind the producer becomes the tail.
        consumer = dyn(seq=1, dst=6, srcs=(5,))
        consumer.providers = [producer]
        iq.insert(consumer)
        assert not iq.tails_producing(producer)
        assert iq.tails_producing(consumer)
        # A different object carrying the tail's seq is not the tail.
        assert not iq.tails_producing(dyn(seq=1))


class TestIssueQueueReadySet:
    def test_insert_with_no_pending_ops_is_ready(self):
        iq = IssueQueue(8)
        d = dyn(seq=0)
        iq.insert(d)
        assert iq.ready_count == 1
        assert iq.ready_oldest_first() == [d]

    def test_pending_entry_becomes_ready_via_mark_ready(self):
        iq = IssueQueue(8)
        waiting = dyn(seq=1)
        waiting.pending_ops = 1
        iq.insert(waiting)
        assert iq.ready_count == 0
        waiting.pending_ops = 0
        iq.mark_ready(waiting)
        assert iq.ready_oldest_first() == [waiting]

    def test_mark_ready_ignores_departed_entries(self):
        iq = IssueQueue(8)
        d = dyn(seq=0)
        d.pending_ops = 1
        iq.insert(d)
        iq.remove(d)
        d.pending_ops = 0
        iq.mark_ready(d)
        assert iq.ready_count == 0

    def test_ready_order_is_insertion_order_not_seq(self):
        # A copy gets a younger seq but can be inserted before an older
        # instruction; age order for select is insertion order.
        iq = IssueQueue(8)
        late_seq = dyn(seq=100)
        early_seq = dyn(seq=5)
        iq.insert(late_seq)
        iq.insert(early_seq)
        assert [d.seq for d in iq.ready_oldest_first()] == [100, 5]

    def test_issue_ready_removes_from_window(self):
        iq = IssueQueue(8)
        a, b = dyn(seq=0), dyn(seq=1)
        iq.insert(a)
        iq.insert(b)
        view = iq.ready_view()
        assert [entry for _, entry in view] == [a, b]
        iq.issue_ready(0)
        assert iq.ready_oldest_first() == [b]
        assert [d.seq for d in iq.entries_oldest_first()] == [1]

    def test_remove_discards_ready_entry(self):
        iq = IssueQueue(8)
        d = dyn(seq=0)
        iq.insert(d)
        iq.remove(d)
        assert iq.ready_count == 0


class TestFifoIssueQueueReadySet:
    def test_only_heads_are_ready(self):
        iq = FifoIssueQueue(n_fifos=2, depth=4)
        producer = dyn(seq=0)
        producer.pending_ops = 1
        consumer = dyn(seq=1, dst=6, srcs=(5,))
        consumer.providers = [producer]
        iq.insert(producer)
        iq.insert(consumer)
        assert iq.ready_count == 0  # head itself is pending
        producer.pending_ops = 0
        iq.mark_ready(producer)
        assert iq.ready_oldest_first() == [producer]
        # The chained consumer is not a head, so waking it does nothing.
        iq.mark_ready(consumer)
        assert iq.ready_oldest_first() == [producer]

    def test_successor_head_deferred_until_next_view(self):
        iq = FifoIssueQueue(n_fifos=1, depth=4)
        producer = dyn(seq=0)
        consumer = dyn(seq=1, dst=6, srcs=(5,))
        consumer.providers = [producer]
        iq.insert(producer)
        iq.insert(consumer)
        view = iq.ready_view()
        assert [entry for _, entry in view] == [producer]
        iq.issue_ready(0)
        # The exposed head does not join the live view mid-selection...
        assert view == []
        # ...but is enrolled at the start of the next cycle's view.
        assert iq.ready_oldest_first() == [consumer]

    def test_heads_ready_in_seq_order(self):
        iq = FifoIssueQueue(n_fifos=4, depth=4)
        for seq in (7, 2, 5):
            iq.insert(dyn(seq=seq))
        assert [d.seq for d in iq.ready_oldest_first()] == [2, 5, 7]


class TestBypassNetwork:
    def test_per_direction_budget(self):
        bypass = BypassNetwork(ports_per_direction=2, latency=1)
        assert bypass.claim(0, 0)
        assert bypass.claim(0, 0)
        assert not bypass.claim(0, 0)
        assert bypass.claim(0, 1)  # other direction unaffected

    def test_budget_renews(self):
        bypass = BypassNetwork(ports_per_direction=1)
        assert bypass.claim(0, 0)
        assert bypass.claim(1, 0)

    def test_transfer_counting(self):
        bypass = BypassNetwork()
        bypass.claim(0, 0)
        bypass.claim(0, 1)
        bypass.claim(1, 1)
        assert bypass.transfers == [1, 2]
        assert bypass.total_transfers == 3

    def test_zero_ports_always_refuses(self):
        bypass = BypassNetwork(ports_per_direction=0)
        assert not bypass.available(0, 0)
        assert not bypass.claim(0, 0)

    def test_negative_geometry_rejected(self):
        with pytest.raises(SimulationError):
            BypassNetwork(ports_per_direction=-1)
