"""numpy's BLAS thread count: one thread for a block of work, the caller's count after.

Two processes, each with a BLAS pool as wide as the machine, stall each
other's spin-waiting workers: on two cores with two BLAS threads, a
``verify`` whose forked child and parent kept them took 4.8 s instead of
0.25 s, and the same stall struck ``verify`` beside any other busy process.
The matrices of every pipeline are small enough that one thread loses
little.  So ``cli.main`` runs each command inside ``one_thread``, and
``verify.suites`` guards its fork with it too, for library callers.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np

# The thread-count setter and getter of the OpenBLAS that numpy's wheels bundle.
_SET_THREADS = "scipy_openblas_set_num_threads64_"
_GET_THREADS = "scipy_openblas_get_num_threads64_"


@functools.cache
def thread_calls():
    """numpy's OpenBLAS ``(set, get)`` thread-count calls; None under another BLAS."""
    lib = ctypes.CDLL(np._core._multiarray_umath.__file__)  # searches its libraries too
    if not hasattr(lib, _SET_THREADS):
        return None
    set_threads, get_threads = getattr(lib, _SET_THREADS), getattr(lib, _GET_THREADS)
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return set_threads, get_threads


@contextlib.contextmanager
def one_thread():
    """Run the block with numpy's OpenBLAS at one thread, then restore its count.

    Under another BLAS the block runs as it is.
    """
    calls = thread_calls()
    if calls is None:
        yield
        return
    set_threads, get_threads = calls
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)
