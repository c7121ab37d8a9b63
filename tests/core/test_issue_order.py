"""The issue stage's integer age key against the tuple order it replaces.

``_issue`` sorts ready uops by ``Uop.age``, the core's fetch ordinal.  The
key must order every pair of uops exactly as ``(fetch_cycle, thread_id,
seq)`` does, with no bound on thread ids (``_next_thread_id`` grows with
every helper activation) or on sequence numbers.
"""

from hypothesis import given, settings, strategies as st

from repro.core import ThreadKind
from repro.core.thread import MainFetchUnit
from repro.isa import Assembler
from tests.core.conftest import small_core

_HELPERS = {0: ("MT_ONLY", ()),
            1: ("MT_ITO", ((ThreadKind.INNER_ONLY, "ITO"),)),
            2: ("MT_OT_IT", ((ThreadKind.OUTER, "OT"),
                             (ThreadKind.INNER, "IT")))}


def _core(helpers, first_helper_id, seq_bases):
    """A small core that fetches from a warm two-line loop, with
    ``helpers`` helper threads numbered from ``first_helper_id`` that
    fetch the same loop, and each thread's next seq moved on by its
    base."""
    a = Assembler()
    a.label("top")
    for i in range(14):
        a.addi(1 + i % 8, 1 + (i + 3) % 8, i)
    a.j("top")
    program = a.build()
    core = small_core(program)
    core.run(max_instructions=20)  # past the cold instruction-fetch miss
    core.full_squash()
    mode, roles = _HELPERS[helpers]
    core.set_partition_mode(mode)
    core._next_thread_id = first_helper_id
    for kind, role in roles:
        core.add_helper_thread(kind, MainFetchUnit(program), role)
    for thread, base in zip(core.threads, seq_bases):
        thread.next_seq += base
    return core


def _fetched_uops(core, cycles):
    """(fetch cycle, uop) for every uop fetched in ``cycles`` ticks, via a
    wrapper on the core's fetch stage."""
    seen = []
    orig = core._fetch_thread

    def fetch_thread(thread):
        first = thread.next_seq
        orig(thread)
        seen.extend((core.cycle, u) for _, u in thread.frontend_q
                    if u.seq >= first)

    core._fetch_thread = fetch_thread
    for _ in range(cycles):
        core.tick()
    return seen


def _tuple_order(fetched):
    cycle, uop = fetched
    return cycle, uop.thread_id, uop.seq


@settings(max_examples=20, deadline=None)
@given(helpers=st.sampled_from(sorted(_HELPERS)),
       first_helper_id=st.integers(1, 1 << 40),
       seq_bases=st.lists(st.integers(0, 1 << 40), min_size=3, max_size=3),
       cycles=st.integers(2, 30))
def test_age_orders_as_fetch_cycle_thread_seq(helpers, first_helper_id,
                                              seq_bases, cycles):
    core = _core(helpers, first_helper_id, seq_bases)
    fetched = _fetched_uops(core, cycles)
    assert {u.thread_id for _, u in fetched} == {t.id for t in core.threads}
    by_age = sorted(fetched, key=lambda f: f[1].age)
    by_tuple = sorted(fetched, key=_tuple_order)
    assert by_age == by_tuple
    assert len({u.age for _, u in fetched}) == len(fetched)


def test_age_spans_large_ids_and_seqs():
    """A fixed witness of the corner the property covers: helper ids from
    16 and sequence numbers crossing 2**32, fetched in the same cycles."""
    core = _core(2, 16, [0, (1 << 32) - 2, (1 << 32) - 2])
    fetched = _fetched_uops(core, 3)
    uops = [u for _, u in fetched]
    assert {u.thread_id for u in uops} == {0, 16, 17}
    assert min(u.seq for u in uops if u.thread_id) < 1 << 32
    assert max(u.seq for u in uops) > 1 << 32
    assert sorted(fetched, key=lambda f: f[1].age) == sorted(
        fetched, key=_tuple_order)
