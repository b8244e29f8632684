"""The chunked arrival stream against the one-arrival-lookahead one.

``ArrivalStream`` pulls its source ``CHUNK`` items at a time, validates
a chunk's times in one pass and cuts with ``searchsorted``. The
reference below is the per-arrival stream it replaced: it validates an
arrival as it becomes the head, i.e. when the arrival before it is
consumed. Random streams of triples, 4-tuples and ``Arrival`` objects,
with a bad time (backwards, NaN, infinite) at a random position, chunk
sizes that put it anywhere in a chunk, and ``limit`` values that cross
chunk ends: every sequence of ``pop`` / ``pop_until`` / ``peek_time``
calls must deliver the same arrivals and raise at the same call.
"""

from math import isfinite

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve import stream as stream_module
from repro.serve.stream import Arrival, ArrivalStream


class ReferenceStream:
    """One-item lookahead: the head is validated as it is pulled."""

    def __init__(self, items):
        self._iter = iter(items)
        self._head = None
        self._last_time = float("-inf")
        self._advance()

    def _advance(self):
        try:
            item = next(self._iter)
        except StopIteration:
            self._head = None
            return
        arrival = Arrival.of(item)
        time = arrival.submit_time
        if not (isfinite(time) and time >= self._last_time):
            raise ServeError(f"{time} after {self._last_time}")
        self._last_time = time
        self._head = arrival

    @property
    def exhausted(self):
        return self._head is None

    def peek_time(self):
        return self._head.submit_time if self._head else float("inf")

    def pop(self):
        if self._head is None:
            raise ServeError("arrival stream is exhausted")
        out = self._head
        self._advance()
        return out

    def pop_until(self, clock, limit=None):
        out = []
        while (
            self._head is not None
            and self._head.submit_time <= clock
            and len(out) != limit
        ):
            out.append(self.pop())
        return out


@st.composite
def streams(draw):
    """Items in one of the three accepted forms, nondecreasing times,
    and maybe one bad time."""
    n = draw(st.integers(0, 30))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0]), min_size=n, max_size=n))
    times, t = [], 0.0
    for step in steps:
        t += step
        times.append(t)
    if n and draw(st.booleans()):
        at = draw(st.integers(0, n - 1))
        times[at] = draw(
            st.sampled_from([float("nan"), float("inf"), -float("inf"), -1.0])
        )
    items = []
    for i, time in enumerate(times):
        form = draw(st.sampled_from(["triple", "quad", "arrival"]))
        params = (i, i % 3)
        if form == "triple":
            items.append((f"t{i % 4}", params, time))
        elif form == "quad":
            items.append((f"t{i % 4}", list(params), time, f"tenant{i % 2}"))
        else:
            items.append(Arrival(f"t{i % 4}", params, time, ""))
    return items


calls = st.lists(
    st.one_of(
        st.just(("pop",)),
        st.just(("peek_time",)),
        st.tuples(
            st.just("pop_until"),
            st.sampled_from([-1.0, 0.0, 0.5, 2.0, 7.5, float("inf")]),
            st.one_of(st.none(), st.integers(0, 9)),
        ),
    ),
    max_size=12,
)


def _run(make, items, script):
    """What each call returned, up to and including the first raise."""
    try:
        stream = make(items)
    except ServeError:
        return ["raised at construction"]
    out = []
    for call in script:
        try:
            if call[0] == "pop":
                if stream.exhausted:
                    out.append("exhausted")
                    continue
                out.append(stream.pop())
            elif call[0] == "peek_time":
                out.append(repr(stream.peek_time()))
            else:
                out.append(list(stream.pop_until(call[1], call[2])))
        except ServeError:
            out.append("raised")
            break
    return out


@settings(max_examples=300, deadline=None)
@given(streams(), calls, st.integers(1, 6))
def test_chunked_stream_matches_the_reference(items, script, chunk):
    saved = stream_module.CHUNK
    stream_module.CHUNK = chunk
    try:
        got = _run(ArrivalStream, items, script)
    finally:
        stream_module.CHUNK = saved
    assert got == _run(ReferenceStream, items, script)
