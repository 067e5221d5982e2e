"""Property: reducing the blocks of a block-diagonal matrix one by one and
merging their invariant factors gives the Smith normal form of the whole."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from mbs import IntegerMatrix, smith_normal_form  # noqa: E402
from mbs.algebra import _divisibility_chain  # noqa: E402


@st.composite
def blocks(draw):
    """One to five integer blocks of one to four rows and columns; entries
    are small or, now and then, large enough to carry big prime factors."""
    entry = st.one_of(st.integers(-12, 12), st.integers(-2**70, 2**70))
    out = []
    for _ in range(draw(st.integers(1, 5))):
        m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        out.append([[draw(entry) for _ in range(n)] for _ in range(m)])
    return out


def block_diagonal(parts):
    width = sum(len(b[0]) for b in parts)
    rows, offset = [], 0
    for b in parts:
        for row in b:
            rows.append([0] * offset + row + [0] * (width - offset - len(row)))
        offset += len(b[0])
    return IntegerMatrix.from_rows(rows)


@settings(max_examples=150, deadline=None)
@given(blocks())
def test_merged_block_factors_equal_whole_snf(parts):
    decs = [smith_normal_form(IntegerMatrix.from_rows(b)) for b in parts]
    whole = smith_normal_form(block_diagonal(parts))
    assert sum(d.rank for d in decs) == whole.rank
    assert _divisibility_chain([f for d in decs for f in d.invariant_factors]) == \
        tuple(f for f in whole.invariant_factors if f > 1)
