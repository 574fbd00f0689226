"""In-memory spans around the public entry points of each layer.

The benchmark never edits the program: it replaces a module or class
attribute with a wrapper for the length of one traced pass and restores the
original afterwards.  Where a module binds a name at import time
(``from .schedule import generate_schedule``), the wrapper goes on that
importing module's attribute, because that is the name the caller looks up.

A span is (name, start, end, parent) with integer nanosecond times, kept in
flat arrays until the pass ends.  Integer times make the self-time
arithmetic exact: a span's self time is its duration minus its children's
durations, and the self times of a tree add up to its root's duration.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

#: A span name, or a function of the wrapped call's arguments returning one.
SpanName = Union[str, Callable[..., str]]
#: Called after the wrapped call returns: ``observe(args, kwargs, result)``.
Observer = Callable[[tuple, dict, Any], None]


class SpanRecorder:
    """Records nested spans of one single-threaded pass."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def _intern(self, name: str) -> int:
        ident = self._name_ids.get(name)
        if ident is None:
            ident = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(
        self, fn: Callable, name: SpanName, observe: Optional[Observer] = None
    ) -> Callable:
        """``fn`` recording one span per call."""
        stack = self._stack
        starts, ends, parents, name_of = self.starts, self.ends, self.parents, self.name_of
        clock = time.perf_counter_ns
        fixed = None if callable(name) else self._intern(name)

        def wrapper(*args, **kwargs):
            ident = fixed if fixed is not None else self._intern(name(*args, **kwargs))
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_of.append(ident)
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -------------------------------------------------------

    def durations(self) -> List[int]:
        return [end - start for start, end in zip(self.starts, self.ends)]

    def self_times(self) -> List[int]:
        """Each span's duration minus the durations of its children."""
        own = self.durations()
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def nesting_violations(self) -> int:
        """Spans that start before or end after their parent, or never ended."""
        bad = 0
        starts, ends = self.starts, self.ends
        for index, parent in enumerate(self.parents):
            if ends[index] < starts[index]:
                bad += 1
            elif parent >= 0 and (
                starts[index] < starts[parent] or ends[index] > ends[parent]
            ):
                bad += 1
        return bad

    def by_name(self) -> Dict[str, Tuple[int, int, int]]:
        """name -> (calls, inclusive ns, self ns)."""
        calls = [0] * len(self.names)
        total = [0] * len(self.names)
        own = [0] * len(self.names)
        for ident, duration, self_ns in zip(
            self.name_of, self.durations(), self.self_times()
        ):
            calls[ident] += 1
            total[ident] += duration
            own[ident] += self_ns
        return {
            name: (calls[i], total[i], own[i]) for i, name in enumerate(self.names)
        }

    def root_ns(self) -> int:
        """Summed duration of the spans without a parent."""
        return sum(
            end - start
            for start, end, parent in zip(self.starts, self.ends, self.parents)
            if parent < 0
        )


#: (owner, attribute, span name, observer) — one wrapper installation.
Target = Tuple[Any, str, SpanName, Optional[Observer]]


@contextmanager
def installed(recorder: SpanRecorder, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap every target for the duration of the block, then restore."""
    saved = []
    try:
        for owner, attribute, name, observe in targets:
            # A method a class inherits is wrapped on that class and the
            # override removed afterwards, leaving the base class untouched.
            own = attribute in vars(owner)
            original = vars(owner)[attribute] if own else getattr(owner, attribute)
            saved.append((owner, attribute, original, own))
            setattr(owner, attribute, recorder.wrap(original, name, observe))
        yield
    finally:
        for owner, attribute, original, own in reversed(saved):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)


def accounting(
    recorder: SpanRecorder, whole_ns: int, layer_of: Callable[[str], str]
) -> Dict[str, Any]:
    """Self time per layer plus the unattributed remainder of ``whole_ns``.

    ``ok`` holds when no span runs past its parent, every self time is
    non-negative, the spans fit inside the whole, and the layer self times
    plus the remainder add up to the whole exactly (integer nanoseconds).
    """
    layers: Dict[str, int] = {}
    negative = 0
    for ident, self_ns in zip(recorder.name_of, recorder.self_times()):
        if self_ns < 0:
            negative += 1
        layer = layer_of(recorder.names[ident])
        layers[layer] = layers.get(layer, 0) + self_ns
    unattributed = whole_ns - recorder.root_ns()
    violations = recorder.nesting_violations()
    total = sum(layers.values()) + unattributed
    return {
        "ok": violations == 0 and negative == 0 and unattributed >= 0
        and total == whole_ns,
        "whole_ns": whole_ns,
        "unattributed_ns": unattributed,
        "layers_ns": dict(sorted(layers.items())),
        "spans": len(recorder),
        "nesting_violations": violations,
        "negative_self": negative,
    }
