"""Property tests for the edit-distance kernels and threshold propagation.

Three kernels can answer a distance query — the scalar ``_full_dp``, the
bit-parallel ``_myers_dp`` and the band-limited ``_banded_dp`` — and the
dispatcher in :func:`repro.similarity.edit_distance.levenshtein` picks
between them per call.  They must be interchangeable: every kernel agrees
with the reference DP on arbitrary unicode inputs, including empty strings
and bounds that land exactly on the true distance (the banded kernel's
boundary case).

Threshold propagation (:class:`~repro.similarity.batch.BatchMatcher`
deriving a per-rule similarity floor and bounding the kernel with it) is a
pure optimization: on random matcher configurations and entity pairs, the
propagated batch decision must equal the unbounded weighted-sum decision.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import Entity
from repro.similarity import AttributeRule, BatchMatcher, WeightedMatcher, levenshtein
from repro.similarity.edit_distance import _banded_dp, _full_dp, _myers_dp

#: Unicode-heavy but collision-prone alphabet: small enough that random
#: strings share substrings (exercising the prefix/suffix stripping and
#: the band's early exit), plus multibyte and astral characters.
ALPHABET = "abcdé日本語🙂 "

short_text = st.text(alphabet=ALPHABET, max_size=24)
nonempty_text = st.text(alphabet=ALPHABET, min_size=1, max_size=24)


def reference_distance(a: str, b: str) -> int:
    """Textbook full-matrix Levenshtein, the oracle for every kernel."""
    rows = [list(range(len(b) + 1))]
    for i, ca in enumerate(a, start=1):
        row = [i]
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            row.append(min(rows[i - 1][j] + 1, row[j - 1] + 1, rows[i - 1][j - 1] + cost))
        rows.append(row)
    return rows[len(a)][len(b)]


class TestKernelAgreement:
    @given(a=short_text, b=short_text)
    def test_levenshtein_matches_reference(self, a, b):
        assert levenshtein(a, b) == reference_distance(a, b)

    @given(a=nonempty_text, b=nonempty_text)
    def test_myers_matches_full_dp(self, a, b):
        assert _myers_dp(a, b) == _full_dp(a, b) == reference_distance(a, b)

    @given(a=short_text, b=short_text, delta=st.integers(min_value=-2, max_value=3))
    def test_bounded_levenshtein_clamps_at_bound(self, a, b, delta):
        # Draw bounds clustered around the true distance so the
        # bound-equal-to-distance boundary is hit constantly.
        true = reference_distance(a, b)
        bound = max(0, true + delta)
        got = levenshtein(a, b, max_distance=bound)
        if true <= bound:
            assert got == true
        else:
            assert got == bound + 1

    @given(a=nonempty_text, b=nonempty_text, bound=st.integers(min_value=0, max_value=30))
    def test_banded_matches_reference_within_preconditions(self, a, b, bound):
        # _banded_dp's contract (enforced by the dispatcher): a is the
        # shorter string, the bound covers the length difference, and the
        # band is narrower than a row (else Myers is used).
        if len(a) > len(b):
            a, b = b, a
        if len(b) - len(a) > bound or 2 * bound + 1 >= len(a):
            return
        true = reference_distance(a, b)
        got = _banded_dp(a, b, bound)
        assert got == (true if true <= bound else bound + 1)

    @given(b=short_text, bound=st.integers(min_value=0, max_value=5))
    def test_empty_string_edges(self, b, bound):
        assert levenshtein("", b) == len(b)
        got = levenshtein("", b, max_distance=bound)
        assert got == (len(b) if len(b) <= bound else bound + 1)


# ---------------------------------------------------------------------------
# Threshold propagation never flips a decision
# ---------------------------------------------------------------------------

_ATTRS = ("title", "venue", "year")

rule_strategy = st.tuples(
    st.sampled_from(_ATTRS),
    st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
    st.sampled_from(["edit", "exact", "edit"]),  # edit-heavy on purpose
)

entity_values = st.lists(
    st.text(alphabet=ALPHABET, max_size=20), min_size=3, max_size=3
)


@st.composite
def matcher_configs(draw):
    raw = draw(st.lists(rule_strategy, min_size=1, max_size=4))
    # One rule per attribute at most (duplicate attributes are legal but
    # make the test harder to read); keep the first of each.
    rules = []
    seen = set()
    for attribute, weight, comparator in raw:
        if attribute in seen:
            continue
        seen.add(attribute)
        rules.append(AttributeRule(attribute, weight=weight, comparator=comparator))
    threshold = draw(st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    return WeightedMatcher(rules, threshold)


def _entity(idx: int, values) -> Entity:
    return Entity(id=f"e{idx}", attrs=dict(zip(_ATTRS, values)))


class TestThresholdPropagation:
    @settings(max_examples=200)
    @given(
        matcher=matcher_configs(),
        v1=entity_values,
        v2=entity_values,
        mutate=st.booleans(),
    )
    def test_is_match_equals_unbounded_decision(self, matcher, v1, v2, mutate):
        if mutate:
            # Near-duplicates stress the boundary region where propagation
            # floors sit closest to the actual similarities.
            v2 = [value[:-1] if value else value for value in v1]
        e1, e2 = _entity(0, v1), _entity(1, v2)
        [bounded] = BatchMatcher(matcher).decisions([(e1, e2)])
        unbounded = matcher.similarity(e1, e2) >= matcher.threshold
        assert bounded == unbounded
