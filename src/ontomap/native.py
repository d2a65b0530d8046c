"""Build, cache and load ``sweep.c``, the compiled twin of ``gibbs._sweep``.

README "Reproducibility" describes the cache.  With no compiler, or when
the build or the load fails, :func:`sweeper` returns None.
"""

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from functools import cache, partial
from pathlib import Path

import numpy as np

SOURCE = Path(__file__).with_name("sweep.c")
CC = "cc"
# no fused multiply-add, fast-math or -march=native: on every CPU, each
# operation rounds as it does in Python
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")


def cache_dir() -> Path:
    return Path.home() / ".cache" / "ontomap"


def _load(directory: Path):
    """The library in ``directory``, built first unless its bytes match
    the digest recorded with it.  A build goes to a temporary directory
    beside it and is then moved into place, so that no process ever
    loads a partly written file."""
    key = hashlib.sha256(repr((SOURCE.read_bytes(), FLAGS, sys.platform,
                               platform.machine())).encode()).hexdigest()
    lib = directory / f"sweep-{key[:16]}.so"
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
    return ctypes.CDLL(str(lib))


@cache
def kernel():
    """The compiled ``ontomap_sweep``, or None if it cannot be had."""
    try:
        try:
            directory = cache_dir()
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            st = directory.stat()
            private = st.st_uid == os.getuid() and not st.st_mode & 0o022
        except (OSError, RuntimeError):     # RuntimeError: no home directory
            private = False
        if private:
            fn = _load(directory).ontomap_sweep
        else:
            with tempfile.TemporaryDirectory() as tmp:
                fn = _load(Path(tmp)).ontomap_sweep
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    fn.argtypes = ([ctypes.c_int64] * 6 + [ctypes.c_double] * 4
                   + [ctypes.c_void_p] * 20)
    fn.restype = None
    return fn


def sweeper(tree, flat, K, alpha, beta, s):
    """``sweep(uniforms)``: ``gibbs._sweep`` on the chain ``s`` through the
    kernel, with the same result; None when there is no kernel."""
    fn = kernel()
    if fn is None:
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
        fn(*head, uniforms.ctypes.data, weights.ctypes.data)
        return weights.tolist()

    sweep.arrays = arrays   # alive as long as ``sweep``: ``head`` points in
    return sweep
