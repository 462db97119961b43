"""Property tests of the wiring kernel against the naive oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import wiring_oracle as oracle
from box_oracle import relabel
from nsboxes import BIPARTITIONS, Relabeling, Wiring, apply_wiring, builtin, mix

BITS = st.integers(0, 1)

wirings = st.builds(
    Wiring,
    st.sampled_from(BIPARTITIONS),
    BITS,
    st.integers(0, 3),
    st.integers(0, 15),
    st.integers(0, 255),
)

relabelings3 = st.builds(
    Relabeling,
    st.permutations((0, 1, 2)).map(tuple),
    st.tuples(BITS, BITS, BITS),
    st.tuples(*[st.tuples(BITS, BITS)] * 3),
)

vertices = st.builds(
    relabel,
    st.sampled_from(
        [builtin(n) for n in ("class3", "class4", "class44", "deterministic(1,2,0)")]
    ),
    relabelings3,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(vertices, min_size=1, max_size=3), st.lists(st.integers(1, 9), min_size=3, max_size=3), wirings)
def test_kernel_equals_oracle_and_wiring_is_linear(boxes, raw, w):
    raw = raw[: len(boxes)]
    weights = [Fraction(r, sum(raw)) for r in raw]
    mixed = mix(boxes, weights)
    effective = apply_wiring(mixed, w)
    assert effective.table == oracle.wire(mixed.table, w)
    assert effective.table == mix([apply_wiring(b, w) for b in boxes], weights).table
