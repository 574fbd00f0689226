"""Property-based tests: load-balancing invariants over random workloads.

Global PairRange is a pure function of the schedule's estimates, so its
invariants are checked directly on synthetic inputs:

* on an adversarial single-giant-block workload, ``pairrange`` never has
  a worse planned makespan than the untouched ``slack`` baseline, and it
  actually shards the giant;
* the shards of every split block tile its pair space ``[0, total_pairs)``
  exactly — no pair lost, none compared twice;
* the planned makespan stays within one work unit of the mean load, and
  balancing is deterministic.

Seeds are pinned (``@seed``) so CI failures replay locally; the profile
machinery in ``conftest.py`` additionally derandomizes under
``HYPOTHESIS_PROFILE=ci``.
"""

import copy

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.blocking.blocks import Block
from repro.core.balance import BALANCE_STRATEGIES, apply_balance, skew_report
from repro.core.estimation import BlockEstimate
from repro.core.schedule import (
    ProgressiveSchedule,
    build_block_orders,
    recompute_sequence,
)
from repro.mechanisms.base import window_pairs_count

_WINDOW = 10


# ---------------------------------------------------------------------------
# pairrange vs slack on adversarial single-giant workloads
# ---------------------------------------------------------------------------


def _toy_schedule(sizes, num_tasks):
    """A schedule of childless root blocks, one per size, LPT-assigned.

    Costs equal the mechanism pair count (``cost_a = 0``), the worst case
    for skew: all virtual time is comparisons.
    """
    trees = {}
    estimates = {}
    for i, n in enumerate(sizes):
        block = Block(
            family="X", level=1, key=f"b{i:03d}", entity_ids=(), size_override=n
        )
        pairs = window_pairs_count(n, _WINDOW)
        cost = float(max(pairs, 1))
        trees[block.uid] = block
        estimates[block.uid] = BlockEstimate(
            cov=0,
            d=0.5,
            frac=1.0,
            th=n,
            window=_WINDOW,
            dup=1.0,
            cost_p=cost,
            cost=cost,
            util=1.0 / cost,
            full=True,
        )
    order = sorted(trees, key=lambda u: (-estimates[u].cost, u))
    loads = [0.0] * num_tasks
    assignment = {}
    for uid in order:
        task = min(range(num_tasks), key=lambda t: (loads[t], t))
        assignment[uid] = task
        loads[task] += estimates[uid].cost
    schedule = ProgressiveSchedule(
        num_tasks=num_tasks,
        trees=trees,
        estimates=estimates,
        assignment=assignment,
        block_order=build_block_orders(trees, estimates, assignment, num_tasks),
        dominance={uid: i for i, uid in enumerate(sorted(trees))},
        tree_of_block={uid: uid for uid in trees},
        main_tree={},
        split_roots={},
        sequence={},
        sequence_stride=1,
        cost_vector=[1.0],
        weights=[1.0],
        generation_cost=0.0,
        blocks=dict(trees),
    )
    recompute_sequence(schedule)
    return schedule


def _giant_size_for(small_sizes, num_tasks):
    """A block size whose pair count dwarfs the rest: the giant alone must
    exceed twice the post-split mean load, so splitting provably wins."""
    small_pairs = sum(window_pairs_count(n, _WINDOW) for n in small_sizes)
    target = max(2 * small_pairs + 4 * num_tasks, 50)
    size = _WINDOW
    while window_pairs_count(size, _WINDOW) < target:
        size *= 2
    return size


@seed(20260807)
@settings(max_examples=40, deadline=None)
@given(
    small_sizes=st.lists(st.integers(2, 12), min_size=0, max_size=12),
    num_tasks=st.integers(3, 8),
)
def test_pairrange_never_loses_to_slack_on_giant_blocks(small_sizes, num_tasks):
    sizes = list(small_sizes) + [_giant_size_for(small_sizes, num_tasks)]
    slack_schedule = _toy_schedule(sizes, num_tasks)
    split_schedule = copy.deepcopy(slack_schedule)

    slack_plan = apply_balance(slack_schedule, strategy="slack")
    split_plan = apply_balance(split_schedule, strategy="pairrange")

    assert split_plan.shards, "the giant block was not sharded"
    assert split_plan.after.max <= slack_plan.after.max + 1e-6
    assert split_plan.after.max_over_mean <= slack_plan.after.max_over_mean + 1e-6

    # The shards of each split root tile its pair stream exactly.
    by_block = {}
    for shard in split_plan.shards:
        by_block.setdefault(shard.block_uid, []).append(shard)
    for uid, shards in by_block.items():
        shards.sort(key=lambda s: s.index)
        root = split_schedule.trees[uid]
        total = window_pairs_count(root.size, split_schedule.estimates[uid].window)
        assert shards[0].start == 0
        assert shards[-1].stop == total
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start

    # The rewritten schedule stays well-formed: every order entry is a
    # known block or shard, each shard appears exactly once, and the skew
    # report matches the block orders.
    entries = [e for order in split_schedule.block_order for e in order]
    assert len(entries) == len(set(entries))
    known = set(split_schedule.tree_of_block) | set(split_schedule.shards)
    home_replaced = {s.key for s in split_plan.shards if s.index == 0}
    assert set(entries) == (known - set(by_block)) | home_replaced | {
        s.key for s in split_plan.shards if s.index > 0
    }
    assert skew_report(split_schedule) == split_plan.after


# ---------------------------------------------------------------------------
# global pairrange: cuts tile the pair space, loads stay within one unit
# ---------------------------------------------------------------------------


@seed(20260807)
@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 40), min_size=1, max_size=16),
    num_tasks=st.integers(2, 8),
)
def test_global_pairrange_cuts_tile_pair_space(sizes, num_tasks):
    """Every block the global cuts split is tiled exactly by its shards."""
    schedule = _toy_schedule(sizes, num_tasks)
    plan = apply_balance(schedule, strategy="pairrange")

    by_block = {}
    for shard in plan.shards:
        by_block.setdefault(shard.block_uid, []).append(shard)
    assert set(by_block) == set(plan.split_blocks)
    for uid, shards in by_block.items():
        shards.sort(key=lambda s: s.index)
        total = window_pairs_count(
            schedule.trees[uid].size, schedule.estimates[uid].window
        )
        assert shards[0].start == 0
        assert shards[-1].stop == total
        for left, right in zip(shards, shards[1:]):
            assert left.stop == right.start
        assert all(s.stop > s.start for s in shards)
    # The rewritten schedule stays well-formed: no order entry is
    # duplicated and the skew report matches the block orders.
    entries = [e for order in schedule.block_order for e in order]
    assert len(entries) == len(set(entries))
    assert skew_report(schedule) == plan.after


@seed(20260807)
@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 60), min_size=1, max_size=16),
    num_tasks=st.integers(2, 8),
)
def test_global_pairrange_load_bound(sizes, num_tasks):
    """Max planned load <= mean + the largest placed unit's cost.

    Work units are disjoint contiguous intervals of the global cost axis
    and each lands on the equal-width task range containing its midpoint,
    so a task's load can exceed its range width (the mean) by at most half
    of its first unit plus half of its last — bounded by one whole unit.
    (Toy blocks have ``cost_a = 0``, so a unit's cost equals its axis
    width exactly and the geometric bound is tight.)
    """
    schedule = _toy_schedule(sizes, num_tasks)
    plan = apply_balance(schedule, strategy="pairrange")

    split = set(plan.split_blocks)
    unit_costs = [
        schedule.estimates[uid].cost
        for uid in schedule.trees
        if uid not in split
    ]
    unit_costs.extend(shard.cost for shard in plan.shards)
    total = sum(unit_costs)
    assert abs(total - plan.after.total) <= 1e-6 * max(total, 1.0)
    assert plan.after.max <= total / num_tasks + max(unit_costs) + 1e-6


@seed(20260807)
@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(2, 30), min_size=1, max_size=20),
    num_tasks=st.integers(1, 8),
)
def test_apply_balance_is_deterministic(sizes, num_tasks):
    for strategy in BALANCE_STRATEGIES:
        first = _toy_schedule(sizes, num_tasks)
        second = copy.deepcopy(first)
        plan_a = apply_balance(first, strategy=strategy)
        plan_b = apply_balance(second, strategy=strategy)
        assert plan_a == plan_b
        assert first.assignment == second.assignment
        assert first.block_order == second.block_order
        assert first.shards == second.shards
        assert first.sequence == second.sequence
