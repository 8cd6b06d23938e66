"""The one cache primitive, run past its bound.

Every memo in the package is a `Memo`, which empties itself once it holds
more than `cap` entries.  These checks drive the per-system memos (bound
by SELFSIM_CACHE) and the process-wide portrait tables (bound by
DEFAULT_CACHE) past a bound of one and compare with the default bound and
with the tree-walk oracles.
"""

import contextlib

from hypothesis import given, settings

from selfsim.closure import extract_relations, state_closure
from selfsim.tree import DEFAULT_CACHE, Memo, Portrait

from test_closure import example_m4
from test_portrait_algebra import PAIRS, abelian_pair, grigorchuk, walk_mul


def test_put_empties_the_table_once_it_holds_more_than_cap():
    memo = Memo(2)
    assert memo.put("a", 1) == 1
    assert memo.put("b", 2) == 2
    assert memo.put("c", 3) == 3
    assert memo == {"a": 1, "b": 2, "c": 3}
    assert memo.put("d", 4) == 4
    assert memo == {"d": 4}


def closure_answers():
    """Closure reports of three recursions and one fold presentation."""
    _, _, g = example_m4()
    return [state_closure(grigorchuk()).to_json(),
            state_closure(abelian_pair()).to_json(),
            state_closure([g], depth=6).to_json(),
            extract_relations([g]).to_json()]


def test_system_memos_at_bound_one_give_the_default_answers(monkeypatch):
    monkeypatch.delenv("SELFSIM_CACHE", raising=False)
    want = closure_answers()
    monkeypatch.setenv("SELFSIM_CACHE", "1")
    assert grigorchuk()[0].system._portrait_memo.cap == 1
    assert closure_answers() == want


@contextlib.contextmanager
def portrait_tables_at_bound_one():
    tables = (Portrait._intern, Portrait._products, Portrait._inverses,
              Portrait._orders)
    for table in tables:
        table.cap = 1
    try:
        yield
    finally:
        for table in tables:
            table.cap = DEFAULT_CACHE


@settings(max_examples=60, deadline=None)
@given(PAIRS)
def test_portrait_tables_at_bound_one_match_the_oracles(pair):
    p, q = pair
    with portrait_tables_at_bound_one():
        product = p * q
        assert product == walk_mul(p, q)
        assert q * p == walk_mul(q, p)
        assert walk_mul(p, p.inverse()).is_identity()
        assert walk_mul(q.inverse(), q).is_identity()
        assert product.order() == product.level_perm(p.depth).order()
        assert p.order() == p.level_perm(p.depth).order()
