"""Build and load the compiled host-kernel extension on demand.

The repository ships :mod:`repro.device` ``ckern.c`` as source, not as a
prebuilt wheel: the container policy forbids installing packages, and a
tiny C core compiled at first use (the ``binary_tree.c`` /
``wrapper.py`` precedent from the related network-aggregation repo)
keeps the dependency surface at "a C compiler, if you happen to have
one".  Without a compiler — or if anything at all goes wrong — callers
get ``None`` and the NumPy reference kernels remain in charge, so the
fast path can never take correctness down with it.

Artifacts are cached under ``~/.cache/repro-ckern/<digest>/`` keyed by
the SHA-256 of the C source, the interpreter version, the platform and
the host CPU's feature flags, so editing ``ckern.c``, switching Pythons
or sharing the cache with a host that lacks an instruction set the
``-march=native`` build used rebuilds automatically, and repeat imports
cost one ``stat``.  The compiler command that produced a
build is stored next to it (``build_cmd.txt``) and reported by
:func:`build_command`, so benchmark baselines can record it.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path
from types import ModuleType

__all__ = ["build_command", "build_error", "cache_dir", "load_ckern", "source_path"]

_CACHE_ENV = "REPRO_CKERN_CACHE"
_CPUINFO = Path("/proc/cpuinfo")
_BUILD_TIMEOUT_S = 120.0

_module: ModuleType | None = None
_attempted = False
_build_error: str | None = None
_build_cmd: str | None = None


def source_path() -> Path:
    """Location of the C kernel source shipped with the package."""
    return Path(__file__).with_name("ckern.c")


def cache_dir() -> Path:
    """Directory build artifacts land in (override: ``REPRO_CKERN_CACHE``)."""
    override = os.environ.get(_CACHE_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-ckern"


def build_error() -> str | None:
    """Why the last in-process build attempt failed, if it did."""
    return _build_error


def build_command() -> str | None:
    """Compiler and flags of the loaded build (``None`` when not built)."""
    return _build_cmd


def _cpu_flags() -> str:
    """The CPU feature flags ``-march=native`` compiles against: the
    first ``flags`` (x86) or ``Features`` (Arm) line of ``/proc/cpuinfo``,
    or a constant where the file or the line is absent."""
    try:
        with _CPUINFO.open() as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _digest(source: Path) -> str:
    h = hashlib.sha256()
    h.update(source.read_bytes())
    h.update(sys.version.encode())
    h.update(sysconfig.get_platform().encode())
    h.update(_cpu_flags().encode())
    return h.hexdigest()[:16]


def _compiler() -> str | None:
    for name in (os.environ.get("CC") or "", "cc", "gcc", "clang"):
        if name and shutil.which(name):
            return name
    return None


def _ext_suffix() -> str:
    return sysconfig.get_config_var("EXT_SUFFIX") or ".so"


def _compile(source: Path, out: Path) -> str:
    """Compile ``source`` to ``out``; returns the compiler and flags used."""
    cc = _compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (tried $CC, cc, gcc, clang)")
    include = sysconfig.get_paths()["include"]
    flags = ["-O3", "-shared", "-fPIC", "-fwrapv"]
    if sys.platform == "darwin":
        flags += ["-undefined", "dynamic_lookup"]
    # the extension is compiled on the machine that runs it, so
    # -march=native is safe and unlocks the AVX-512 merge network;
    # compilers/targets that reject the flag get a plain build
    last = ""
    for used in (["-march=native"] + flags, flags):
        cmd = [cc, *used, f"-I{include}", str(source), "-o", str(out)]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=_BUILD_TIMEOUT_S
        )
        if proc.returncode == 0:
            return " ".join([cc, *used])
        last = (proc.stderr or proc.stdout or "").strip()[-500:]
    raise RuntimeError(f"{cc} failed: {last}")


def load_ckern() -> ModuleType | None:
    """Return the compiled ``_repro_ckern`` module, building if needed.

    Idempotent per process; a failed attempt is remembered (see
    :func:`build_error`) and not retried until the interpreter restarts.
    """
    global _module, _attempted, _build_error, _build_cmd
    if _module is not None or _attempted:
        return _module
    _attempted = True
    try:
        source = source_path()
        if not source.is_file():
            raise RuntimeError(f"kernel source missing: {source}")
        build = cache_dir() / _digest(source)
        target = build / f"_repro_ckern{_ext_suffix()}"
        cmd_file = build / "build_cmd.txt"
        if not target.is_file():
            build.mkdir(parents=True, exist_ok=True)
            tmp = target.with_suffix(target.suffix + f".tmp{os.getpid()}")
            cmd_file.write_text(_compile(source, tmp) + "\n")
            os.replace(tmp, target)  # atomic: concurrent builders race safely
        loader = importlib.machinery.ExtensionFileLoader(
            "_repro_ckern", str(target)
        )
        spec = importlib.util.spec_from_file_location(
            "_repro_ckern", str(target), loader=loader
        )
        if spec is None or spec.loader is None:
            raise RuntimeError("could not create extension module spec")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        _module = mod
        if cmd_file.is_file():
            _build_cmd = cmd_file.read_text().strip()
    except Exception as exc:  # noqa: BLE001 - any failure means "no fast path"
        _build_error = f"{type(exc).__name__}: {exc}"
        _module = None
    return _module


def reset_for_tests() -> None:
    """Forget the cached module/attempt so tests can exercise rebuilds."""
    global _module, _attempted, _build_error, _build_cmd
    _module = None
    _attempted = False
    _build_error = None
    _build_cmd = None
