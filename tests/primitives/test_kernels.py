"""Kernel registry: selection, fallback, env override, instrumentation."""

import numpy as np
import pytest

from repro.device import cbuild
from repro.obs.metrics import MetricsRegistry
from repro.primitives import kernels
from repro.primitives.inplace import ScratchLedger


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
    kern = kernels.instrument(kernels.select("numpy"), registry)
    assert kern.provenance()["instrumented"] is True
    assert kern.fused is False  # forces per-kernel (unfused) dispatch

    keys = np.array([3, 1, 2, 1], dtype=np.int64)
    pay = np.array([[30], [10], [20], [11]], dtype=np.int64)
    out_k, out_p = kern.sort_records(keys, pay)
    assert list(out_k) == [1, 1, 2, 3]
    assert list(out_p[:, 0]) == [10, 11, 20, 30]

    a = np.array([1, 3, 5], dtype=np.int64)
    b = np.array([2, 4], dtype=np.int64)

    scratch = ScratchLedger(4)
    x_k = np.empty(2, dtype=np.int64)
    y_k = np.empty(3, dtype=np.int64)
    kern.sort_split_into(a, b, 2, x_k, y_k, scratch)
    assert list(x_k) == [1, 2] and list(y_k) == [3, 4, 5]

    text = registry.to_prometheus()
    assert 'kernel="sort_records"' in text
    assert 'kernel="sort_split_into"' in text
    assert 'backend="numpy"' in text


@pytest.mark.parametrize("name", ["cext"])
def test_compiled_backend_provenance_if_present(name):
    if name not in kernels.available_backends():
        pytest.skip(f"{name} not available on this host")
    kern = kernels.select(name)
    assert kern.name == name
    assert kern.fused is True
    assert "-O3" in cbuild.build_command().split()
