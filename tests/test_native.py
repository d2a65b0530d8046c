"""The loader of the compiled kernels: its flags, and a cache that is never
trusted blindly and keeps only the newest libraries.  ``test_gibbs`` and
``test_graphmap`` check what the kernels compute."""

import hashlib
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from ontomap import native

needs_cc = pytest.mark.skipif(shutil.which(native.CC) is None,
                              reason="no C compiler")


def test_compile_command_keeps_python_rounding(kernel_cache, monkeypatch):
    # fused multiply-adds or fast-math would change the sampler's floats,
    # and with them its seeded output, on some CPUs but not others
    commands = []

    def no_compiler(cmd, **kwargs):
        commands.append(cmd)
        raise FileNotFoundError(cmd[0])

    monkeypatch.setattr(native.subprocess, "run", no_compiler)
    assert native.kernel() is None
    [cmd] = commands
    assert "-ffp-contract=off" in cmd
    assert not {"-ffast-math", "-Ofast", "-march=native"} & set(cmd)


def test_interrupted_build_leaves_no_library(kernel_cache, monkeypatch):
    def half_build(cmd, **kwargs):
        Path(cmd[cmd.index("-o") + 1]).write_bytes(b"\x7fELF, half of it")
        raise subprocess.CalledProcessError(1, cmd)

    monkeypatch.setattr(native.subprocess, "run", half_build)
    assert native.kernel() is None
    assert list(kernel_cache.iterdir()) == []


@needs_cc
def test_cache_is_private_and_reused(kernel_cache, monkeypatch):
    assert native.kernel() is not None
    assert stat.S_IMODE(kernel_cache.stat().st_mode) == 0o700
    [lib] = kernel_cache.glob("*.so")
    assert sorted(p.name for p in kernel_cache.iterdir()) == \
        sorted([lib.name, lib.stem + ".sha256"])
    # a second load takes the cached library and runs no compiler
    native.kernel.cache_clear()
    monkeypatch.setattr(native, "CC", "no-such-compiler")
    assert native.kernel() is not None


def _plant(directory, lib, data, digest):
    """A library at ``lib``'s name in ``directory``, with a digest file."""
    directory.mkdir(mode=0o700, exist_ok=True)
    (directory / lib.name).write_bytes(data)
    (directory / (lib.stem + ".sha256")).write_text(digest)


@needs_cc
def test_corrupt_cached_library_is_rebuilt(kernel_cache, monkeypatch,
                                           tmp_path):
    assert native.kernel() is not None
    [lib] = kernel_cache.glob("*.so")
    good = lib.read_bytes()
    flipped = bytearray(good)
    flipped[len(good) // 2] ^= 0xFF
    # a new directory: this process has not loaded a library from it
    other = tmp_path / "other"
    _plant(other, lib, bytes(flipped), (kernel_cache / (lib.stem + ".sha256"))
           .read_text())
    monkeypatch.setattr(native, "cache_dir", lambda: other)
    native.kernel.cache_clear()
    assert native.kernel() is not None
    rebuilt = (other / lib.name).read_bytes()
    assert rebuilt != bytes(flipped)
    assert (other / (lib.stem + ".sha256")).read_text() == \
        hashlib.sha256(rebuilt).hexdigest()


@needs_cc
@pytest.mark.parametrize("unsafe", ["group-writable", "other-writable",
                                    "owned-by-another-user"])
def test_unsafe_cache_dir_is_never_loaded_from(kernel_cache, monkeypatch,
                                               tmp_path, unsafe):
    assert native.kernel() is not None
    [lib] = kernel_cache.glob("*.so")
    # garbage with a matching digest: loading it would fail
    garbage = b"not a library"
    other = tmp_path / "other"
    _plant(other, lib, garbage, hashlib.sha256(garbage).hexdigest())
    if unsafe == "owned-by-another-user":
        uid = os.getuid()
        monkeypatch.setattr(native.os, "getuid", lambda: uid + 1)
    else:
        other.chmod(0o770 if unsafe == "group-writable" else 0o707)
    monkeypatch.setattr(native, "cache_dir", lambda: other)
    native.kernel.cache_clear()
    assert native.kernel() is not None
    assert (other / lib.name).read_bytes() == garbage
    assert len(list(other.iterdir())) == 2


@needs_cc
def test_concurrent_first_builds_all_load(tmp_path):
    # three processes race to build the first library into one cache
    code = ("import pathlib, sys; from ontomap import native; "
            "native.cache_dir = lambda: pathlib.Path(sys.argv[1]); "
            "sys.exit(native.kernel() is None)")
    env = {**os.environ,
           "PYTHONPATH": str(Path(native.__file__).parent.parent)}
    procs = [subprocess.Popen([sys.executable, "-c", code,
                               str(tmp_path / "cache")], env=env)
             for _ in range(3)]
    assert [p.wait(timeout=120) for p in procs] == [0, 0, 0]
    assert len(list((tmp_path / "cache").iterdir())) == 2


def _fake_build(cmd, **kwargs):
    Path(cmd[cmd.index("-o") + 1]).write_bytes(b"not a library")


def test_build_keeps_only_the_newest_libraries(kernel_cache, monkeypatch):
    kernel_cache.mkdir(mode=0o700)
    old = ("sweep-0", "kernels-1", "kernels-2", "kernels-3")
    for age, stem in enumerate(old):
        _plant(kernel_cache, Path(f"{stem}.so"), b"old", "digest")
        os.utime(kernel_cache / f"{stem}.so", (1000 + age, 1000 + age))
    monkeypatch.setattr(native.subprocess, "run", _fake_build)
    assert native.kernel() is None      # the fake library does not load
    [new] = {p.stem for p in kernel_cache.glob("*.so")} - set(old)
    assert sorted(p.name for p in kernel_cache.iterdir()) == sorted(
        f"{stem}.{ext}" for stem in (new, "kernels-3")
        for ext in ("so", "sha256"))


def _removed_before_load(monkeypatch, times):
    """The first ``times`` loads find their library pruned, as another
    process's build may prune it after the digest check; returns the
    paths loaded."""
    real, paths = native.ctypes.CDLL, []

    def cdll(path):
        paths.append(path)
        if len(paths) <= times:
            Path(path).unlink()
        return real(path)

    monkeypatch.setattr(native.ctypes, "CDLL", cdll)
    return paths


@needs_cc
def test_library_removed_before_load_is_rebuilt(kernel_cache, monkeypatch):
    paths = _removed_before_load(monkeypatch, times=1)
    assert native.kernel() is not None
    assert len(paths) == 2 and Path(paths[1]).exists()


@needs_cc
def test_library_removed_before_load_falls_back(kernel_cache, monkeypatch):
    # rebuilt once only: when that library goes too, the Python twins run,
    # and no further load is tried in this process
    paths = _removed_before_load(monkeypatch, times=3)
    assert native.kernel() is None
    assert native.kernel() is None and len(paths) == 2
