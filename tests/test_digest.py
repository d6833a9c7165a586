"""Properties of the determinism digest's definition.

The digest folds each event's fields into a row hash and the row hashes
into one running value (``repro.sim.digest``); the object hooks fold one
event at a time in Python, the backends a whole table in numpy.  Every
equivalence suite in the repo leans on the two agreeing and on the value
moving whenever the event stream does, so both are pinned here.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import digest as digest_mod
from repro.sim.digest import DeterminismDigest

MASK = (1 << 64) - 1
INT64 = st.integers(min_value=-(1 << 63), max_value=(1 << 63) - 1)


@st.composite
def tables(draw, min_rows=0, max_rows=80):
    """An int64 table, each row's width, and the table with every field
    past its row's width zeroed (what a backend passes with ``widths``)."""
    width = draw(st.integers(min_value=1, max_value=10))
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    ev = np.array(
        draw(st.lists(st.lists(INT64, min_size=width, max_size=width),
                      min_size=rows, max_size=rows)),
        dtype=np.int64,
    ).reshape(rows, width)
    widths = np.array(
        draw(st.lists(st.integers(min_value=1, max_value=width),
                      min_size=rows, max_size=rows)),
        dtype=np.int64,
    )
    padded = ev.copy()
    padded[np.arange(width) >= widths[:, None]] = 0
    return ev, widths, padded


def per_row(rows):
    """The digest of ``rows`` (lists of Python ints), one hook call each."""
    digest = DeterminismDigest()
    for row in rows:
        digest._fold(row)
    return digest


def folded(*calls):
    """The digest of a run of ``fold_table`` calls, each ``(table,
    widths)``."""
    digest = DeterminismDigest()
    for ev, widths in calls:
        digest.fold_table(ev, widths)
    return digest


def reference(rows):
    """The definition, written out: ``h = w + Σⱼ fⱼ·Rʲ⁺¹`` through the
    splitmix64 finalizer per event, ``v = v·Q + h`` across events."""
    v = 0
    for row in rows:
        z = len(row)
        for j, x in enumerate(row):
            z += (x & MASK) * pow(digest_mod._R, j + 1, 1 << 64)
        z &= MASK
        z = ((z ^ (z >> 30)) * digest_mod._M1) & MASK
        z = ((z ^ (z >> 27)) * digest_mod._M2) & MASK
        z ^= z >> 31
        v = (v * digest_mod._Q + z) & MASK
    return v


class TestOneDefinition:
    @settings(max_examples=60, deadline=None)
    @given(tables())
    def test_fold_table_equals_per_row_fold(self, drawn):
        ev, widths, padded = drawn
        full = ev.tolist()
        assert folded((ev, None)).value == per_row(full).value
        assert folded((ev, None)).value == reference(full)
        short = [row[:w] for row, w in zip(full, widths.tolist())]
        both = folded((padded, widths)), per_row(short)
        assert both[0].value == both[1].value == reference(short)
        assert both[0].events == both[1].events == len(full)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(INT64, min_size=1, max_size=9), max_size=12))
    def test_a_negative_field_hashes_as_its_low_64_bits(self, rows):
        unsigned = [[x & MASK for x in row] for row in rows]
        assert per_row(rows).value == per_row(unsigned).value
        assert per_row(rows).value == reference(unsigned)

    def test_wide_rows_and_long_tables(self):
        """Past the cached powers of either multiplier: 200 fields (the
        per-event power list grows) and 3000 events (the event power table
        does)."""
        rng = np.random.default_rng(7)
        wide = rng.integers(-(1 << 63), (1 << 63) - 1, (5, 200),
                            dtype=np.int64)
        assert folded((wide, None)).value == per_row(wide.tolist()).value
        tall = rng.integers(-(1 << 63), (1 << 63) - 1, (3000, 7),
                            dtype=np.int64)
        assert folded((tall, None)).value == reference(tall.tolist())

    @settings(max_examples=60, deadline=None)
    @given(tables(), st.lists(st.integers(min_value=0, max_value=80),
                              max_size=6))
    def test_any_split_into_consecutive_calls_is_one_call(self, drawn, cuts):
        _, widths, padded = drawn
        bounds = [0, *sorted(min(c, len(padded)) for c in cuts), len(padded)]
        pieces = [(padded[a:b], widths[a:b])
                  for a, b in zip(bounds, bounds[1:])]
        whole = folded((padded, widths))
        split = folded(*pieces)
        assert (split.value, split.events) == (whole.value, whole.events)

    @settings(max_examples=40, deadline=None)
    @given(tables(max_rows=20))
    def test_no_overflow_warning(self, drawn):
        """Scalar numpy ``uint64`` arithmetic warns on overflow; the digest
        wraps on purpose and must never say so."""
        ev, widths, padded = drawn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            folded((ev, None), (padded, widths))
            per_row(ev.tolist())


class TestTheValueMoves:
    @settings(max_examples=60, deadline=None)
    @given(tables(min_rows=1), st.data())
    def test_changing_one_field_of_one_event(self, drawn, data):
        ev, _, _ = drawn
        i = data.draw(st.integers(0, len(ev) - 1))
        j = data.draw(st.integers(0, ev.shape[1] - 1))
        new = data.draw(INT64.filter(lambda x: x != ev[i, j]))
        changed = ev.copy()
        changed[i, j] = new
        assert folded((changed, None)).value != folded((ev, None)).value

    @settings(max_examples=60, deadline=None)
    @given(tables(min_rows=2), st.data())
    def test_swapping_two_events(self, drawn, data):
        ev, _, _ = drawn
        i, j = data.draw(st.lists(st.integers(0, len(ev) - 1), min_size=2,
                                  max_size=2, unique=True))
        swapped = ev.copy()
        swapped[[i, j]] = ev[[j, i]]
        if np.array_equal(swapped, ev):
            return  # two equal events: the stream did not change
        assert folded((swapped, None)).value != folded((ev, None)).value

    @settings(max_examples=60, deadline=None)
    @given(tables(min_rows=1), st.data())
    def test_appending_a_trailing_zero_field(self, drawn, data):
        _, widths, padded = drawn
        i = data.draw(st.integers(0, len(padded) - 1))
        longer = np.zeros((len(padded), padded.shape[1] + 1), dtype=np.int64)
        longer[:, :-1] = padded
        wider = widths.copy()
        wider[i] += 1  # the row's new last field is the 0 already there
        base = folded((padded, widths)).value
        assert folded((longer, wider)).value != base
        row = padded[i, :widths[i]].tolist()
        assert per_row([row + [0]]).value != per_row([row]).value

    @settings(max_examples=60, deadline=None)
    @given(tables(min_rows=2), st.data())
    def test_moving_an_event_across_a_call_boundary(self, drawn, data):
        """``[e, A…] + []`` against ``[A…] + [e]``: the event leaves the
        front of one call for the call after it, which was empty."""
        ev, _, _ = drawn
        i = data.draw(st.integers(0, len(ev) - 1))
        e = ev[i:i + 1]
        rest = np.delete(ev, i, axis=0)
        if (rest == e).all():
            return  # every event equal: the stream did not change
        empty = ev[:0]
        before = folded((np.vstack([e, rest]), None), (empty, None))
        after = folded((rest, None), (e, None))
        assert after.events == before.events
        assert after.value != before.value
