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

import subprocess
import sys
from pathlib import Path

import pytest

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


def arena(rows, heap):
    counts = zeros(rows)
    counts[1:heap + 1] = array.array("q", [K] * heap)
    return i64(rows * K), bytearray(rows * K * RB), counts


def scratch():
    return zeros(2 * K + 2 * K * RB // 8)


def sort_split_into(**kw):
    a = dict(a=i64(2), b=i64(2, 1), ma=2, x_k=zeros(2), y_k=zeros(2),
             sk=zeros(4), pa=bytearray(2 * RB), pb=bytearray(2 * RB),
             x_p=bytearray(2 * RB), y_p=bytearray(2 * RB),
             sp=bytearray(4 * RB), rb=RB)
    a.update(kw)
    return mod.sort_split_into(*a.values())


def sort_records(**kw):
    a = dict(keys=array.array("q", [3, 1, 2, 1]), pay=bytearray(4 * RB), rb=RB)
    a.update(kw)
    return mod.sort_records(*a.values())


def insert_sorted(**kw):
    keys, pay, counts = arena(8, 1)
    a = dict(keys=keys, pay=pay, counts=counts, ik=i64(K),
             ip=bytearray(K * RB), scratch=scratch(), k=K, rb=RB, n=K,
             heap_size=1, log=zeros(256))
    a.update(kw)
    return mod.insert_sorted(*a.values())


def deletemin(**kw):
    keys, pay, counts = arena(8, 3)
    a = dict(keys=keys, pay=pay, counts=counts, heap_size=3, k=K, rb=RB,
             count=K, out_k=zeros(K), out_p=bytearray(K * RB),
             scratch=scratch(), log=zeros(1024))
    a.update(kw)
    return mod.deletemin(*a.values())


sort_split_into(); sort_records(); insert_sorted(); deletemin()
try:
    {call}
except ValueError as exc:
    print("rejected:", exc)
else:
    print("accepted")
"""


def _assert_rejected(call: str) -> None:
    script = _CHILD.format(ext_dir=str(Path(MOD.__file__).parent), call=call)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, (
        f"{call} killed or failed the child (exit {proc.returncode}): "
        f"{proc.stderr.strip()[-400:]}"
    )
    assert proc.stdout.startswith("rejected:"), f"{call}: {proc.stdout.strip()}"


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
        pytest.param("deletemin(k=0)", id="deletemin-k0"),
        pytest.param("deletemin(rb=-1)", id="deletemin-rb_negative"),
        pytest.param("deletemin(pay=bytearray(8))",
                     id="deletemin-short_arena_payload"),
        pytest.param("deletemin(out_p=bytearray(8))",
                     id="deletemin-short_out_payload"),
        pytest.param("sort_split_into(rb=-1)", id="sort_split_into-rb_negative"),
        pytest.param("sort_split_into(pa=bytearray(8))",
                     id="sort_split_into-short_a_payload"),
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
        pytest.param(
            "sort_split_into(a=array.array('d', [0.5, 1.5]), "
            "b=array.array('d', [1.0, 2.0]), x_k=zeros(2, 'd'), "
            "y_k=zeros(2, 'd'), sk=zeros(4, 'd'))",
            id="sort_split_into-float64_keys",
        ),
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
def test_compiled_surface_is_what_the_queue_calls():
    public = {n for n in dir(MOD) if not n.startswith("_")}
    assert public == {"deletemin", "insert_sorted", "sort_records", "sort_split_into"}


def test_kernel_set_has_no_unused_kernels():
    for cls in (kernels.KernelSet, kernels.CExtKernels):
        for name in ("merge_into", "bitonic_sort", "exclusive_scan", "compact"):
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
