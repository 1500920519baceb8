"""The compiled core fails closed at its Python→C boundary.

Each bad call runs in a child interpreter that loads ``_repro_ckern``
directly and passes stdlib buffers (``array.array`` for int64 keys,
``bytearray`` for payload rows).  A kernel that accepted the call would
write out of bounds or divide by zero and kill that child (SIGSEGV,
SIGFPE), not pytest; the test reads a crash, a non-``ValueError``, or a
normal return as a failure.  Every child first makes the well-formed
call of each entry point, so a rejection can only come from the one
argument the case changes.
"""

import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.arena import NodeArena
from repro.device import cbuild
from repro.primitives import kernels

MOD = cbuild.load_ckern()
needs_c = pytest.mark.skipif(MOD is None, reason="no C compiler on this host")

_CHILD = """
import array, sys
sys.path.insert(0, {ext_dir!r})
import _repro_ckern as mod

K, RB = 4, 8


def zeros(n, code="q"):
    return array.array(code, [0] * n)


def i64(n, start=0):
    return array.array("q", range(start, start + n))


def arena(rows, heap, start=0):
    counts = zeros(rows)
    counts[1:heap + 1] = array.array("q", [K] * heap)
    return i64(rows * K, start), bytearray(rows * K * RB), counts


def nodes(node, n):
    # payload rows: n copies of one packed knapsack node
    return bytearray(array.array("q", [node] * n).tobytes())


def scratch():
    return zeros(2 * K + 2 * K * RB // 8)


def sort_records(**kw):
    a = dict(keys=array.array("q", [3, 1, 2, 1]), pay=bytearray(4 * RB), rb=RB)
    a.update(kw)
    return mod.sort_records(*a.values())


def insert_sorted(**kw):
    keys, pay, counts = arena(8, 1)
    a = dict(keys=keys, pay=pay, counts=counts, ik=zeros(K),
             ip=bytearray(K * RB), scratch=scratch(), log=zeros(256),
             run_k=i64(K), run_p=bytearray(K * RB), k=K, rb=RB, heap_size=1)
    a.update(kw)
    return mod.insert_sorted(*a.values())


def deletemin(**kw):
    keys, pay, counts = arena(8, 3)
    a = dict(keys=keys, pay=pay, counts=counts, heap_size=3, k=K, rb=RB,
             count=K, out_k=zeros(K), out_p=bytearray(K * RB),
             scratch=scratch(), log=zeros(1024))
    a.update(kw)
    return mod.deletemin(*a.values())


def expand(**kw):
    # items (profit, weight) (6, 2), (4, 4), (3, 6), capacity 11, so
    # lb = 2, wb = 4; nodes (level, profit, weight): the root, (1, 0, 0)
    # and the leaf (3, 10, 6)
    a = dict(nodes=array.array("q", [0, 1, 667]),
             wsum=array.array("q", [0, 2, 6, 12]),
             psum=array.array("q", [0, 6, 10, 13]),
             profits=array.array("q", [6, 4, 3]),
             weights=array.array("q", [2, 4, 6]),
             take=array.array("q", [393, 273, 217]), out_k=zeros(6),
             out_n=zeros(6), lb=2, wb=4, capacity=11, n_items=3, incumbent=0)
    a.update(kw)
    got = mod.expand(*a.values())
    return got, a["out_k"][:got[0]].tolist(), a["out_n"][:got[0]].tolist()


def expand_last_lane(last):
    # ten good nodes, then `last`: the third of a partial last lane of
    # eight.  A rejected batch leaves the outputs as they were.
    out_k, out_n = array.array("q", [7] * 22), array.array("q", [7] * 22)
    try:
        return expand(nodes=array.array("q", [0, 1, 667] * 3 + [1, last]),
                      out_k=out_k, out_n=out_n)
    except ValueError as exc:
        assert str(exc).startswith("expand: node level above"), exc
        assert out_k == out_n == array.array("q", [7] * 22)
        raise


def knapsack_step(rows=8, **kw):
    # expand's instance above, on a heap of three full nodes whose keys
    # are all below 0 (every popped node is fresh at incumbent 0) and
    # whose payload rows all hold the root node (level, profit and
    # weight 0)
    keys, pay, counts = arena(rows, 3, start=-100)
    a = dict(keys=keys, pay=pay, counts=counts, ik=zeros(K),
             ip=bytearray(K * RB), scratch=scratch(), del_log=zeros(1024),
             ins_log=zeros(256), heap_size=3, k=K, rb=RB, count=K,
             step=zeros(2 * K + 1), wsum=array.array("q", [0, 2, 6, 12]),
             psum=array.array("q", [0, 6, 10, 13]),
             profits=array.array("q", [6, 4, 3]),
             weights=array.array("q", [2, 4, 6]),
             take=array.array("q", [393, 273, 217]), out_k=zeros(2 * K),
             out_n=zeros(2 * K), lb=2, wb=4, capacity=11, n_items=3,
             incumbent=0)
    a.update(kw)
    return mod.knapsack_step(*a.values())


sort_records(); insert_sorted(); deletemin(); expand_last_lane(0)
# the incumbent rises to 6; the root's take-child (bound 12.5) and its
# skip-child and the take-child of (1, 0, 0) (every item left fits:
# bound 7) survive, the skip-child of (1, 0, 0) (bound 3) is pruned
assert expand() == ((3, 6, 1), [-800, -448, -448], [393, 274, 1]), expand()
# the step pops the root's four nodes, all fresh; each has both children
# (bounds 12.5 and 7 beat the new incumbent 6), and the eight children
# detach two nodes: the heap goes from 3 nodes to 2 and then 4
assert knapsack_step() == (4, 4, 8, 6, 0, 4, 2, 3, 7), knapsack_step()
try:
    {call}
except ValueError as exc:
    print("rejected:", exc)
else:
    print("accepted")
"""


def _run_child(call: str) -> str:
    script = _CHILD.format(ext_dir=str(Path(MOD.__file__).parent), call=call)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, (
        f"{call} killed or failed the child (exit {proc.returncode}): "
        f"{proc.stderr.strip()[-400:]}"
    )
    return proc.stdout.strip()


def _assert_rejected(call: str) -> None:
    out = _run_child(call)
    assert out.startswith("rejected:"), f"{call}: {out}"


@needs_c
@pytest.mark.parametrize(
    "call",
    [
        pytest.param("insert_sorted(k=0)", id="insert_sorted-k0"),
        pytest.param("insert_sorted(rb=-1)", id="insert_sorted-rb_negative"),
        pytest.param("insert_sorted(pay=bytearray(8))",
                     id="insert_sorted-short_arena_payload"),
        pytest.param("insert_sorted(ip=bytearray(8))",
                     id="insert_sorted-short_items_payload"),
        pytest.param("insert_sorted(run_p=bytearray(8))",
                     id="insert_sorted-short_run_payload"),
        # 8 rows hold heap_size 1 + 6 batches, not + 7
        pytest.param("insert_sorted(run_k=i64(7 * K), "
                     "run_p=bytearray(7 * K * RB))",
                     id="insert_sorted-rows_short_of_batches"),
        # one batch onto node 2 needs 1 * (level 1 + 4) triples
        pytest.param("insert_sorted(log=zeros(14))",
                     id="insert_sorted-short_log"),
        pytest.param("insert_sorted(heap_size=-1)",
                     id="insert_sorted-heap_size_negative"),
        pytest.param("deletemin(k=0)", id="deletemin-k0"),
        pytest.param("deletemin(rb=-1)", id="deletemin-rb_negative"),
        pytest.param("deletemin(pay=bytearray(8))",
                     id="deletemin-short_arena_payload"),
        pytest.param("deletemin(out_p=bytearray(8))",
                     id="deletemin-short_out_payload"),
        pytest.param("sort_records(rb=-1)", id="sort_records-rb_negative"),
        pytest.param("sort_records(pay=bytearray(8))",
                     id="sort_records-short_payload"),
    ],
)
def test_bad_shape_rejected(call):
    _assert_rejected(call)


@needs_c
@pytest.mark.parametrize(
    "call",
    [
        pytest.param("expand(wsum=array.array('d', [0, 2, 6, 12]))",
                     id="float64_wsum"),
        pytest.param("expand(take=array.array('i', [393, 273, 217]))",
                     id="int32_take"),
        pytest.param("expand(nodes=memoryview(i64(6))[::2])",
                     id="strided_nodes"),
        pytest.param("expand(out_n=memoryview(zeros(12))[::2])",
                     id="strided_out_nodes"),
        pytest.param("expand(out_k=bytes(48))", id="read_only_out_keys"),
        pytest.param("expand(out_k=zeros(5))", id="short_out_keys"),
        pytest.param("expand(out_n=zeros(5))", id="short_out_nodes"),
        pytest.param("expand(wsum=i64(3))", id="short_wsum"),
        pytest.param("expand(psum=i64(3))", id="short_psum"),
        pytest.param("expand(profits=i64(2))", id="short_profits"),
        pytest.param("expand(weights=i64(2))", id="short_weights"),
        pytest.param("expand(take=i64(2))", id="short_take"),
        pytest.param("expand(lb=0)", id="lb0"),
        pytest.param("expand(wb=0)", id="wb0"),
        pytest.param("expand(lb=31, wb=32)", id="fields_over_62_bits"),
        pytest.param("expand(capacity=-1)", id="negative_capacity"),
        pytest.param("expand(n_items=2)", id="level_above_n_items"),
        pytest.param("expand(capacity=5)", id="weight_above_capacity"),
        pytest.param("expand(nodes=array.array('q', [0, 6 << 2]), "
                     "capacity=5)", id="inner_weight_above_capacity"),
        pytest.param("expand_last_lane(12 << 2)",
                     id="weight_above_capacity_in_last_partial_lane"),
    ],
)
def test_expand_bad_call_rejected(call):
    _assert_rejected(call)


@needs_c
@pytest.mark.parametrize(
    "call",
    [
        pytest.param("sort_records(keys=array.array('Q', [3, 1, 2, 1]))",
                     id="sort_records-uint64_keys"),
        pytest.param("insert_sorted(keys=zeros(8 * K, 'd'))",
                     id="insert_sorted-float64_arena_keys"),
        pytest.param("deletemin(out_k=zeros(K, 'd'))",
                     id="deletemin-float64_out_keys"),
    ],
)
def test_non_int64_buffer_rejected(call):
    _assert_rejected(call)


@needs_c
@pytest.mark.parametrize(
    "call",
    [
        # heap_size 3: the two new rows need rows 0..4
        pytest.param("knapsack_step(rows=4)", id="rows_short_of_children"),
        # a depth-1 heap's deletemin needs 3 * (1 + 2) triples
        pytest.param("knapsack_step(del_log=zeros(26))",
                     id="short_deletemin_log"),
        # two batches onto node 4 need 2 * (level 2 + 4) triples
        pytest.param("knapsack_step(ins_log=zeros(35))",
                     id="short_insert_log"),
        pytest.param("knapsack_step(out_k=zeros(2 * K - 1))",
                     id="short_child_keys"),
        pytest.param("knapsack_step(out_n=zeros(2 * K - 1))",
                     id="short_child_nodes"),
        pytest.param("knapsack_step(step=zeros(2 * K))", id="short_step"),
        pytest.param("knapsack_step(ik=zeros(K - 1))", id="short_items"),
        pytest.param("knapsack_step(scratch=zeros(2 * K))",
                     id="short_scratch"),
        pytest.param("knapsack_step(wsum=i64(3))", id="short_wsum"),
        pytest.param("knapsack_step(count=K + 1, step=zeros(2 * K + 3), "
                     "out_k=zeros(2 * K + 2), out_n=zeros(2 * K + 2))",
                     id="count_above_k"),
        pytest.param("knapsack_step(heap_size=1)", id="heap_size_1"),
        pytest.param("knapsack_step(rb=16)", id="rb_not_one_node"),
        pytest.param("knapsack_step(incumbent=2 ** 62)",
                     id="incumbent_key_overflow"),
        pytest.param("knapsack_step(counts=zeros(8, 'd'))",
                     id="float64_counts"),
        pytest.param("knapsack_step(step=zeros(4 * K + 2, 'i'))",
                     id="int32_step"),
        pytest.param("knapsack_step(wsum=array.array('d', [0, 2, 6, 12]))",
                     id="float64_wsum"),
        pytest.param("knapsack_step(out_n=zeros(2 * K, 'Q'))",
                     id="uint64_child_nodes"),
        pytest.param("knapsack_step(out_k=memoryview(zeros(4 * K))[::2])",
                     id="strided_child_keys"),
        pytest.param("knapsack_step(pay=nodes(3, 8 * K), n_items=2)",
                     id="level_above_n_items"),
        pytest.param("knapsack_step(pay=nodes(12 << 2, 8 * K))",
                     id="weight_above_capacity"),
    ],
)
def test_knapsack_step_bad_call_rejected(call):
    _assert_rejected(call)


@needs_c
def test_compiled_surface_is_what_the_queue_calls():
    public = {n for n in dir(MOD) if not n.startswith("_")}
    assert public == {"deletemin", "expand", "insert_sorted", "knapsack_step",
                      "sort_records"}


@needs_c
def test_run_into_empty_heap_accepted():
    # 2k + 3 records into an empty heap: the first batch becomes the root,
    # the second detaches node 2, the last 3 fold into the buffer
    call = ("assert insert_sorted(counts=zeros(8), heap_size=0, "
            "run_k=i64(2 * K + 3), run_p=bytearray((2 * K + 3) * RB)) "
            "== (2, 7, 1)")
    assert _run_child(call) == "accepted"


def test_kernel_set_has_no_unused_kernels():
    for cls in (kernels.KernelSet, kernels.CExtKernels):
        for name in ("merge_into", "bitonic_sort", "exclusive_scan", "compact",
                     "sort_split_into"):
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
    # node splits call the reference directly: no kernel set rides the
    # arena, and the instrumented wrapper is built by its class alone
    assert "kernels" not in NodeArena.__slots__
    assert "kernels" not in inspect.signature(NodeArena).parameters
    assert not hasattr(kernels, "instrument")
