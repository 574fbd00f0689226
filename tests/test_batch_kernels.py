"""The batch decider must be invisible except in wall-clock.

``BatchMatcher`` is the only match decider on the resolve paths: it
evaluates ``WeightedMatcher``'s rules rule-major over whole pair batches,
with bounded short-circuits.  Nothing here is allowed to drift from the
per-pair reference: the property suite pins batch ≡ ``similarity >=
threshold`` (and the per-pair similarity and cost-factor methods) on
random matcher configurations (every comparator, truncation,
missing/empty attributes, cached and uncached) and random entity batches;
the ``resolve_block`` differential pins the full driver loop — stats,
duplicate callbacks, charge sequences and stop points — at every batch
width against :func:`reference_resolve_block`, a one-pair-at-a-time loop
kept here as the oracle; the guard tests prove no resolve path
(``resolve_block``, the MR-SN reducer, the incremental service's delta
reducer) falls back to per-pair ``is_match`` / ``comparison_cost_factor``
calls; and the end-to-end differential pins found-pair sets and
progressive curves across {reference, batch} × {serial, process} ×
{slack, blocksplit}, plus shared-memory vs inline-pickle transport, on the
golden books fixture.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.baselines.basic as basic_module
import repro.core.driver as driver_module
import repro.mechanisms.base as mechanisms_base
from repro.baselines import MrsnConfig, MultiPassMRSN
from repro.blocking import books_scheme
from repro.core import books_config
from repro.data import Entity
from repro.evaluation import ExperimentRun, RunSpec
from repro.mapreduce import Cluster, CostModel, ParallelExecutor
from repro.mechanisms import (
    NeverStop,
    ResolveStats,
    SortedNeighborHint,
    block_sort_key,
    resolve_block,
)
from repro.service import ResolverService
from repro.similarity import (
    AttributeRule,
    BatchMatcher,
    WeightedMatcher,
    books_matcher,
)
from repro.similarity.batch import NUMPY_MIN_PAIRS

ALPHABET = "abcdé日本語🙂 "
_ATTRS = ("title", "venue", "year")
_COMPARATORS = ("edit", "exact", "jaro_winkler", "token_jaccard", "qgram")

rule_strategy = st.tuples(
    st.sampled_from(_ATTRS),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    st.sampled_from(_COMPARATORS),
    st.sampled_from([None, 4, 12]),
)


@st.composite
def matcher_configs(draw, cache=False):
    raw = draw(st.lists(rule_strategy, min_size=1, max_size=4))
    rules = []
    seen = set()
    for attribute, weight, comparator, max_chars in raw:
        if attribute in seen:
            continue
        seen.add(attribute)
        rules.append(
            AttributeRule(
                attribute, weight=weight, comparator=comparator, max_chars=max_chars
            )
        )
    threshold = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    return WeightedMatcher(rules, threshold, cache=cache)


@st.composite
def entity_batches(draw, min_pairs=0, max_pairs=NUMPY_MIN_PAIRS + 8):
    """A pool of entities (attributes randomly missing/empty) and a pair
    list over them, long enough to cross the numpy-path threshold."""
    pool_size = draw(st.integers(min_value=2, max_value=8))
    entities = []
    for i in range(pool_size):
        attrs = {}
        for attr in _ATTRS:
            value = draw(
                st.one_of(st.none(), st.text(alphabet=ALPHABET, max_size=16))
            )
            if value is not None:
                attrs[attr] = value
        entities.append(Entity(id=i, attrs=attrs))
    # Near-duplicates stress the threshold boundary where the bounded
    # cutoffs and edit floors sit closest to the actual similarities.
    if draw(st.booleans()) and pool_size >= 2:
        twin_attrs = {
            name: (value[:-1] if value else value)
            for name, value in entities[0].attrs.items()
        }
        entities[1] = Entity(id=1, attrs=twin_attrs)
    indices = st.integers(min_value=0, max_value=pool_size - 1)
    pairs = draw(
        st.lists(
            st.tuples(indices, indices), min_size=min_pairs, max_size=max_pairs
        )
    )
    return [(entities[i], entities[j]) for i, j in pairs]


def _reference_decisions(matcher, pairs):
    return [matcher.similarity(e1, e2) >= matcher.threshold for e1, e2 in pairs]


class TestBatchScalarEquivalence:
    """Batch results equal the per-pair reference methods."""

    @settings(max_examples=150)
    @given(matcher=matcher_configs(), pairs=entity_batches())
    def test_is_match_equals_scalar(self, matcher, pairs):
        reference = _reference_decisions(matcher, pairs)
        assert BatchMatcher(matcher).decisions(pairs) == reference
        assert [matcher.is_match(e1, e2) for e1, e2 in pairs] == reference

    @settings(max_examples=100)
    @given(
        matcher=matcher_configs(),
        pairs=entity_batches(max_pairs=NUMPY_MIN_PAIRS - 1),
    )
    def test_is_match_without_numpy_equals_scalar(self, matcher, pairs):
        # Batches below NUMPY_MIN_PAIRS take the pure-python exact path.
        assert BatchMatcher(matcher).decisions(pairs) == _reference_decisions(
            matcher, pairs
        )

    @settings(max_examples=100)
    @given(matcher=matcher_configs(cache=True), pairs=entity_batches())
    def test_cached_matcher_decisions_equal_scalar(self, matcher, pairs):
        # The batch path must populate and consult the pair cache exactly
        # like the per-pair one; interleave to exercise warm-cache hits.
        assert BatchMatcher(matcher).decisions(pairs) == [
            matcher.is_match(e1, e2) for e1, e2 in pairs
        ]

    @settings(max_examples=150)
    @given(matcher=matcher_configs(), pairs=entity_batches())
    def test_similarity_equals_scalar(self, matcher, pairs):
        reference = [matcher.similarity(e1, e2) for e1, e2 in pairs]
        assert BatchMatcher(matcher).similarities(pairs) == reference

    @settings(max_examples=100)
    @given(matcher=matcher_configs(), pairs=entity_batches())
    def test_cost_factors_equal_scalar(self, matcher, pairs):
        reference = [matcher.comparison_cost_factor(e1, e2) for e1, e2 in pairs]
        assert BatchMatcher(matcher).cost_factors(pairs) == reference

    def test_empty_batch(self):
        batcher = BatchMatcher(books_matcher())
        assert batcher.decisions([]) == []
        assert batcher.similarities([]) == []
        assert batcher.cost_factors([]) == []


# ---------------------------------------------------------------------------
# resolve_block: every batch width replays the per-pair reference sequence
# ---------------------------------------------------------------------------


def reference_resolve_block(
    entities,
    mechanism,
    *,
    window,
    sort_key,
    matcher,
    cost_model,
    charge,
    on_duplicate,
    should_resolve=None,
    pair_filter=None,
    prune=None,
    stop=None,
    on_resolved=None,
    pair_range=None,
    charge_compare=None,
):
    """The oracle: :func:`resolve_block` deciding one pair per call with
    the per-pair ``comparison_cost_factor`` / ``is_match`` methods."""
    stats = ResolveStats()
    if charge_compare is None:
        charge_compare = charge
    condition = stop if stop is not None else NeverStop()
    first, last = (0, None) if pair_range is None else pair_range
    if first < 0 or (last is not None and last < first):
        raise ValueError(f"invalid pair_range {pair_range!r}")
    stream = mechanism.pair_stream(entities, window, sort_key, charge, cost_model)
    for position, (e1, e2) in enumerate(stream):
        if position < first:
            continue
        if last is not None and position >= last:
            break
        if pair_filter is not None and not pair_filter(e1, e2):
            stats.filtered += 1
            continue
        if prune is not None and not prune(e1, e2):
            stats.pruned += 1
            if condition.should_stop(stats, False):
                return stats
            continue
        if should_resolve is not None and not should_resolve(e1, e2):
            stats.skipped += 1
            continue
        charge_compare(cost_model.compare * matcher.comparison_cost_factor(e1, e2))
        is_dup = matcher.is_match(e1, e2)
        stats.comparisons += 1
        if is_dup:
            stats.duplicates += 1
            on_duplicate(e1, e2)
        else:
            stats.distincts += 1
        if on_resolved is not None:
            on_resolved(e1, e2, is_dup)
        if condition.should_stop(stats, is_dup):
            return stats
    stats.exhausted = True
    return stats


def _resolve(entities, matcher, resolver=resolve_block, *, window=8, stop=None):
    charged = []
    dups = []
    resolved = []

    def charge(cost):
        charged.append(cost)
        return cost

    stats = resolver(
        entities,
        SortedNeighborHint(),
        window=window,
        sort_key=lambda e: block_sort_key(e, "title"),
        matcher=matcher,
        cost_model=CostModel(),
        charge=charge,
        on_duplicate=lambda a, b: dups.append((min(a.id, b.id), max(a.id, b.id))),
        on_resolved=lambda a, b, d: resolved.append(
            (min(a.id, b.id), max(a.id, b.id), d)
        ),
        stop=stop,
    )
    return stats, dups, resolved, charged


def _ban_per_pair_matcher(monkeypatch):
    def _banned(self, *args):
        raise AssertionError("a resolve path called the per-pair matcher API")

    monkeypatch.setattr(WeightedMatcher, "is_match", _banned)
    monkeypatch.setattr(WeightedMatcher, "comparison_cost_factor", _banned)


class TestResolveBlockBatching:
    WIDTHS = (1, 2, 64, 10_000)

    def test_batched_resolution_replays_scalar_sequence(self, books_small, monkeypatch):
        entities = books_small.entities[:120]
        reference = _resolve(entities, books_matcher(), reference_resolve_block)
        for width in self.WIDTHS:
            monkeypatch.setattr(mechanisms_base, "DEFAULT_BATCH_PAIRS", width)
            assert _resolve(entities, books_matcher()) == reference
        assert reference[0].comparisons > 0
        assert reference[1]  # found some duplicates, or the test is vacuous

    def test_stop_condition_fires_at_the_same_pair(self, books_small, monkeypatch):
        from repro.mechanisms import DistinctBudget

        entities = books_small.entities[:120]
        reference = _resolve(
            entities, books_matcher(), reference_resolve_block,
            stop=DistinctBudget(25),
        )
        for width in self.WIDTHS:
            monkeypatch.setattr(mechanisms_base, "DEFAULT_BATCH_PAIRS", width)
            batched = _resolve(entities, books_matcher(), stop=DistinctBudget(25))
            assert batched == reference
        assert not reference[0].exhausted

    def test_hot_path_never_calls_scalar_matcher(self, books_small, monkeypatch):
        # The CI guard: reintroducing per-pair is_match/comparison_cost_factor
        # calls on the resolve hot path must fail loudly.
        entities = books_small.entities[:120]
        expected = _resolve(entities, books_matcher())
        _ban_per_pair_matcher(monkeypatch)
        guarded = _resolve(entities, books_matcher())
        assert guarded == expected
        assert guarded[0].comparisons > 0

    def test_mrsn_never_calls_scalar_matcher(self, books_small, monkeypatch):
        config = MrsnConfig(scheme=books_scheme(), matcher=books_matcher(), window=8)

        def run():
            result = MultiPassMRSN(config, Cluster(3)).run(books_small)
            return result.total_time, tuple(result.duplicate_events)

        expected = run()
        _ban_per_pair_matcher(monkeypatch)
        assert run() == expected
        assert expected[1]

    def test_service_submit_never_calls_scalar_matcher(self, books_small, monkeypatch):
        entities = books_small.entities[:300]

        def run():
            service = ResolverService(books_config(), machines=2)
            receipts = [service.submit(entities[:200]), service.submit(entities[200:])]
            return [
                (r.comparisons, r.duplicates, r.pairs, r.end_time) for r in receipts
            ]

        expected = run()
        _ban_per_pair_matcher(monkeypatch)
        assert run() == expected
        assert sum(comparisons for comparisons, *_ in expected) > 0


# ---------------------------------------------------------------------------
# End-to-end differential: {reference, batch} × {serial, process} × balance
# ---------------------------------------------------------------------------


def _fingerprint(run):
    result = run.result
    return (
        result.total_time,
        tuple(result.duplicate_events),
        tuple(run.curve.times),
        tuple(run.curve.recalls),
    )


class TestEndToEndDifferential:
    @pytest.mark.parametrize("balance", ["slack", "blocksplit"])
    def test_scalar_batch_serial_process_identical(
        self, books_small, balance, monkeypatch
    ):
        config = books_config()

        def run(resolver, backend):
            # Forked process-backend workers inherit the patched module
            # attributes, so the reference reaches every reduce task.
            monkeypatch.setattr(driver_module, "resolve_block", resolver)
            monkeypatch.setattr(basic_module, "resolve_block", resolver)
            spec = RunSpec(
                books_small, config, machines=4,
                backend=backend, workers=2, balance=balance,
            )
            return _fingerprint(ExperimentRun(spec).run())

        reference = run(reference_resolve_block, "serial")
        assert run(resolve_block, "serial") == reference
        assert run(resolve_block, "process") == reference
        assert run(reference_resolve_block, "process") == reference

    def test_shared_memory_parity_on_books(self, books_small):
        config = books_config()

        def run(use_shared_memory):
            executor = ParallelExecutor(
                2, serial_floor=0.0, use_shared_memory=use_shared_memory
            )
            spec = RunSpec(books_small, config, machines=4, executor=executor)
            try:
                return _fingerprint(ExperimentRun(spec).run())
            finally:
                executor.close()

        assert run(True) == run(False)
