"""Build, cache and load ``kernels.c``, the compiled twins of
``gibbs._sweep`` and of ``graphmap._local_moves``.

README "Reproducibility" describes the cache, which keeps the ``KEEP``
newest libraries.  With no compiler, or when the build or the load
fails, :func:`sweeper` and :func:`local_mover` return None.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from contextlib import suppress
from functools import cache, partial
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("kernels.c")
CC = "cc"
# no fused multiply-add, fast-math or -march=native: on every CPU, each
# operation rounds as it does in Python
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
# libraries a build leaves in the cache, the newest ones: more than one,
# so that two checkouts can take turns on one cache without rebuilding
KEEP = 2


def cache_dir() -> Path:
    return Path.home() / ".cache" / "ontomap"


def _load(directory: Path, retry=True):
    """The library in ``directory``, built first unless its bytes match
    the digest recorded with it.  A build goes to a temporary directory
    beside it and is then moved into place, so that no process ever
    loads a partly written file.  After a build, all but the ``KEEP``
    newest libraries go, with their digests.  A library that another
    process prunes before it is loaded is built once more."""
    key = hashlib.sha256(repr((SOURCE.read_bytes(), FLAGS, sys.platform,
                               platform.machine())).encode()).hexdigest()
    lib = directory / f"{SOURCE.stem}-{key[:16]}.so"
    sig = lib.with_suffix(".sha256")
    try:
        trusted = sig.read_text() == hashlib.sha256(
            lib.read_bytes()).hexdigest()
    except OSError:
        trusted = False
    if not trusted:
        with tempfile.TemporaryDirectory(dir=directory) as tmp:
            built, digest = Path(tmp) / lib.name, Path(tmp) / sig.name
            subprocess.run([CC, *FLAGS, "-o", str(built), str(SOURCE)],
                           check=True, capture_output=True)
            digest.write_text(hashlib.sha256(built.read_bytes()).hexdigest())
            os.replace(built, lib)
            os.replace(digest, sig)
        # another process may be pruning too
        libs = []
        for so in directory.glob("*.so"):
            with suppress(OSError):
                libs.append((so.stat().st_mtime, so))
        for _, old in sorted(libs, reverse=True)[KEEP:]:
            old.unlink(missing_ok=True)
            old.with_suffix(".sha256").unlink(missing_ok=True)
    try:
        return ctypes.CDLL(str(lib))
    except OSError:
        if lib.exists() or not retry:
            raise
    return _load(directory, retry=False)


@cache
def kernel():
    """The compiled library, its two functions typed, or None if it
    cannot be had."""
    try:
        try:
            directory = cache_dir()
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = directory.stat()
            private = st.st_uid == os.getuid() and not st.st_mode & 0o022
        except (OSError, RuntimeError):     # RuntimeError: no home directory
            private = False
        if private:
            lib = _load(directory)
        else:
            with tempfile.TemporaryDirectory() as tmp:
                lib = _load(Path(tmp))
        sweep, move = lib.ontomap_sweep, lib.ontomap_local_move
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    sweep.argtypes = ([ctypes.c_int64] * 6 + [ctypes.c_double] * 4
                      + [ctypes.c_void_p] * 20)
    move.argtypes = [ctypes.c_int64, ctypes.c_double] + [ctypes.c_void_p] * 10
    sweep.restype = move.restype = None
    return lib


def sweeper(tree, flat, K, alpha, beta, s):
    """``sweep(uniforms)``: ``gibbs._sweep`` on the chain ``s`` through the
    kernel, with the same result; None when there is no kernel."""
    lib = kernel()
    if lib is None:
        return None
    chain = (s.words, s.doc, s.q, s.z, s.n_dk, s.n_kw, s.n_k, s.n_comp,
             s.n_region)
    if any(a.dtype != np.int64 or not a.flags.c_contiguous for a in chain):
        raise TypeError("the chain's arrays must be C-contiguous int64")
    i64, f64 = partial(np.array, dtype=np.int64), np.array
    arrays = (
        *chain[:2], i64(tree.comp_of), i64(tree.region_of),
        i64(tree.comp_size), f64(tree.size_beta), f64(tree.size_eta_beta),
        f64(tree.region_gamma), i64(tree.branch_offset),
        f64(tree.branch_gamma), np.frombuffer(tree.member, np.uint8),
        *chain[2:])
    weights = np.empty(K)
    head = (len(s.words), K, len(tree.comp_of), len(tree.comp_size),
            len(tree.region_gamma), int(flat), alpha, beta, tree.eta_beta,
            tree.eps_beta, *(a.ctypes.data for a in arrays))

    def sweep(uniforms):
        if uniforms.dtype != np.float64 or uniforms.shape != s.words.shape \
                or not uniforms.flags.c_contiguous:
            raise ValueError("sweep takes one float64 uniform per token")
        lib.ontomap_sweep(*head, uniforms.ctypes.data, weights.ctypes.data)
        return weights.tolist()

    sweep.arrays = arrays   # alive as long as ``sweep``: ``head`` points in
    return sweep


def local_mover():
    """``move(graph, degree, two_m, order)``: ``graphmap._local_moves``
    through the kernel, returning the same ``comm``; None when there is no
    kernel."""
    lib = kernel()
    if lib is None:
        return None

    def move(graph, degree, two_m, order):
        n = len(graph)
        offset = np.cumsum([0, *map(len, graph)], dtype=np.int64)
        nbr = np.fromiter((j for d in graph for j in d), np.int64)
        order = np.ascontiguousarray(order, np.int64)
        comm = np.arange(n, dtype=np.int64)
        # the kernel indexes by these ids unchecked
        if len(degree) != n or len(order) != n or any(
                a.size and not 0 <= a.min() <= a.max() < n
                for a in (order, nbr)):
            raise ValueError("move takes n degrees and n visits, and node "
                             "ids below n")
        arrays = (
            offset, nbr,
            np.fromiter((w for d in graph for w in d.values()), np.float64),
            np.array(degree, np.float64), order, comm,
            np.array(degree, np.float64), np.empty(n),
            np.zeros(n, np.uint8), np.empty(n, np.int64))
        lib.ontomap_local_move(n, two_m, *(a.ctypes.data for a in arrays))
        return comm.tolist()

    return move
