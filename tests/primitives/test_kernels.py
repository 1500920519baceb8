"""Kernel registry: selection, fallback, env override, instrumentation."""

import numpy as np
import pytest

from repro.core.native import NativeBGPQ
from repro.device import GpuContext, cbuild
from repro.obs.metrics import MetricsRegistry
from repro.primitives import kernels


@pytest.fixture(autouse=True)
def _isolate_active(monkeypatch):
    """Each test starts with no process-wide backend resolved."""
    monkeypatch.setattr(kernels, "_active", None)
    monkeypatch.delenv("REPRO_KERNELS", raising=False)


def test_numpy_always_available():
    kern = kernels.select("numpy")
    assert kern.name == "numpy"
    assert not kern.fused


def test_select_unknown_backend_raises():
    with pytest.raises(ValueError, match="unknown kernel backend"):
        kernels.select("cuda")


def test_auto_prefers_compiled_when_available():
    kern = kernels.select("auto")
    assert kern.name in kernels.available_backends()
    if "cext" in kernels.available_backends():
        assert kern.name == "cext"


def test_available_backends_starts_with_reference():
    avail = kernels.available_backends()
    assert avail[0] == "numpy"
    assert set(avail) <= {"numpy", "cext"}


def test_unavailable_backend_falls_back_to_numpy(monkeypatch):
    monkeypatch.setitem(kernels._FACTORIES, "cext", lambda: None)
    assert kernels.select("cext").name == "numpy"
    assert kernels.select("auto").name == "numpy"
    assert kernels.available_backends() == ["numpy"]


def test_env_var_drives_lazy_selection(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "numpy")
    assert kernels.active().name == "numpy"


def test_set_active_and_use_restore():
    kernels.set_active("numpy")
    assert kernels.active().name == "numpy"
    with kernels.use("auto") as kern:
        assert kernels.active() is kern
    assert kernels.active().name == "numpy"


def test_provenance_shape():
    info = kernels.provenance(kernels.select("numpy"))
    assert info == {"backend": "numpy", "fused": False}


def test_cext_build_failure_is_graceful(monkeypatch, tmp_path):
    cbuild.reset_for_tests()
    try:
        monkeypatch.setattr(cbuild, "_compiler", lambda: None)
        monkeypatch.setenv("REPRO_CKERN_CACHE", str(tmp_path / "cache"))
        assert cbuild.load_ckern() is None
        assert "compiler" in (cbuild.build_error() or "")
        assert kernels.select("cext").name == "numpy"
    finally:
        cbuild.reset_for_tests()


def test_build_cache_is_keyed_on_cpu_flags(monkeypatch, tmp_path):
    """A -march=native build must not be reused on a host with other
    CPU features: two flag sets land in two build directories.  The
    flags come from /proc/cpuinfo, or a constant where it is absent."""
    cpuinfo = tmp_path / "cpuinfo"
    cpuinfo.write_text("processor\t: 0\nflags\t\t: fpu sse2 avx2\n")
    monkeypatch.setattr(cbuild, "_CPUINFO", cpuinfo)
    assert cbuild._cpu_flags() == "fpu sse2 avx2"
    monkeypatch.setattr(cbuild, "_CPUINFO", tmp_path / "absent")
    assert cbuild._cpu_flags() == "unknown"

    def fake_compile(source, out):
        out.write_bytes(b"")  # lands in the build dir, then fails to load
        return "cc"

    monkeypatch.setenv("REPRO_CKERN_CACHE", str(tmp_path / "cache"))
    monkeypatch.setattr(cbuild, "_compile", fake_compile)
    try:
        for flags in ("fpu sse2 avx2", "fpu sse2 avx2 avx512f"):
            monkeypatch.setattr(cbuild, "_cpu_flags", lambda f=flags: f)
            cbuild.reset_for_tests()
            assert cbuild.load_ckern() is None
    finally:
        cbuild.reset_for_tests()
    assert len(list((tmp_path / "cache").iterdir())) == 2


def test_instrumented_kernels_record_and_match(monkeypatch):
    registry = MetricsRegistry()
    kern = kernels.InstrumentedKernels(kernels.select("numpy"), registry)
    assert kern.provenance()["instrumented"] is True
    assert kern.fused is False  # the reference's own path: node-level splits

    keys = np.array([3, 1, 2, 1], dtype=np.int64)
    pay = np.array([[30], [10], [20], [11]], dtype=np.int64)
    out_k, out_p = kern.sort_records(keys, pay)
    assert list(out_k) == [1, 1, 2, 3]
    assert list(out_p[:, 0]) == [10, 11, 20, 30]

    text = registry.to_prometheus()
    assert 'kernel="sort_records"' in text
    assert 'backend="numpy"' in text


def _run_queue(kern, payload_width):
    """A mixed insert/deletemin script; returns the queue and every
    output."""
    rng = np.random.default_rng(11)
    pq = NativeBGPQ(8, ctx=GpuContext.default(), kernels=kern,
                    payload_width=payload_width)
    outs = []
    for _ in range(40):
        keys = rng.integers(0, 50, size=int(rng.integers(1, 20)))
        pq.insert_bulk(keys, payload=keys if payload_width else None)
        got = pq.deletemin(int(rng.integers(1, 9)))
        outs.append((got[0].tolist(), got[1].tolist()))
    return pq, outs


@pytest.mark.parametrize("payload_width", [0, 1])
@pytest.mark.parametrize("backend", kernels.available_backends())
def test_instrumented_queue_keeps_its_path(backend, payload_width):
    """An instrumented queue runs its backend's own path — the fused
    whole-op calls on the C core, node-level splits on numpy — times
    the kernel calls that path makes, and returns the outputs of an
    uninstrumented queue.  The reference split is a direct call, so no
    backend times it."""
    registry = MetricsRegistry()
    kern = kernels.InstrumentedKernels(kernels.select(backend), registry)
    fused = backend == "cext"
    assert kern.fused is fused
    pq, outs = _run_queue(kern, payload_width)
    assert pq.kernel_provenance()["fused_active"] is fused
    assert pq.kernel_provenance()["instrumented"] is True
    bare, bare_outs = _run_queue(backend, payload_width)
    assert outs == bare_outs
    assert pq.export_state() == bare.export_state()

    def count(op):
        return registry.histogram("repro_kernel_wall_ns", kernel=op,
                                  backend=backend).count

    # payload inserts each make one presort call; on the C core a
    # keys-only insert sorts its own copy instead
    assert count("sort_records") == (40 if payload_width or not fused else 0)
    assert 'kernel="sort_split_into"' not in registry.to_prometheus()
    if fused:
        assert count("insert_sorted") == 40 and count("deletemin") > 0
    else:
        assert 'kernel="insert_sorted"' not in registry.to_prometheus()


@pytest.mark.parametrize("name", ["cext"])
def test_compiled_backend_provenance_if_present(name):
    if name not in kernels.available_backends():
        pytest.skip(f"{name} not available on this host")
    kern = kernels.select(name)
    assert kern.name == name
    assert kern.fused is True
    assert "-O3" in cbuild.build_command().split()
