"""Grid points on several processes, each computing on one BLAS thread.

Every grid of independent points, a ``solver.stabilize`` grid and the
CLI's sweeps and 1D gap surface, runs through ``parallel_map``, which
applies the one failure rule of a point: an exception among
``POINT_ERRORS`` marks the point as failed, and any other is a bug that
ends the run.

numpy and scipy each load their own OpenBLAS, each with its own thread
pool.  The band work of ``solver.solve`` and a 1D point of
``quartic1d.solve_1d`` are many small BLAS calls, which run faster on one
thread than on two, so both set each library to one thread while they run
(``one_blas_thread``) and restore the caller's counts on exit.
``parallel_map`` holds one such scope around all the items of each of its
processes, so a grid restores the counts once, not per point.  A forked
child starts with a fresh scope: a fork copies the scope's lock as the
parent held it, perhaps by a thread the child does not have, and the
depth of frames the child never resumes.  Its counts are the caller's,
already one, so its scope sets none of them.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib
import multiprocessing
import os
import threading
import traceback
from concurrent.futures.process import BrokenProcessPool
from multiprocessing.reduction import ForkingPickler

import numpy as np

from .errors import HybridQError

# errors that mark one grid point as failed in ``parallel_map``; any other
# exception, a bare ValueError included, is a bug and propagates
POINT_ERRORS = (HybridQError, np.linalg.LinAlgError)

# for numpy's and scipy's own OpenBLAS: an extension module that links it,
# and the name of its thread-count functions
_OPENBLAS = (
    ("numpy._core._multiarray_umath", "scipy_openblas_%s_num_threads64_"),
    ("scipy.linalg._fblas", "scipy_openblas_%s_num_threads"))
_blas_lock = threading.Lock()
_blas_depth = 0
_blas_saved: list = []


def _fresh_blas_scope() -> None:
    global _blas_lock, _blas_depth
    _blas_lock, _blas_depth = threading.Lock(), 0


os.register_at_fork(after_in_child=_fresh_blas_scope)


@functools.cache
def _blas_thread_functions() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS that numpy and
    scipy load, found through dlsym on the extension module that links it;
    a library without them (MKL, a system BLAS) is left out."""
    found = []
    for module, stem in _OPENBLAS:
        try:
            library = ctypes.CDLL(importlib.import_module(module).__file__)
            get, set_ = (getattr(library, stem % verb)
                         for verb in ("get", "set"))
        except (ImportError, OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        found.append((get, set_))
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread per library; the outermost exit
    restores the counts found on the outermost entry.  The counts are
    process-wide, so concurrent callers share one depth count.  A library
    already on one thread is left alone: in a forked child, any set call
    starts OpenBLAS's thread pool again, whose threads then compete with
    the computing processes."""
    global _blas_depth
    with _blas_lock:
        if _blas_depth == 0:
            _blas_saved[:] = [(set_, threads)
                              for get, set_ in _blas_thread_functions()
                              if (threads := get()) != 1]
            for set_, _ in _blas_saved:
                set_(1)
        _blas_depth += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_depth -= 1
            if _blas_depth == 0:
                for set_, threads in _blas_saved:
                    set_(threads)


def _point(func, item) -> tuple:
    """``func(item)`` under the failure rule of ``parallel_map``."""
    try:
        return func(item), None
    except POINT_ERRORS as exc:  # recorded, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def _child_share(receiver, sender, func, share) -> None:
    """A started process's ``share`` of ``parallel_map``: its pairs in
    share order, or the exception that ended it with its traceback, sent
    over ``sender``.

    The child closes its copy of the caller's end ``receiver`` first: a
    send larger than the pipe buffer then fails, rather than blocks for
    ever, once the caller is gone."""
    receiver.close()
    caller, ppid = multiprocessing.parent_process(), os.getppid()
    pairs, error, trace = [], None, None
    try:
        with one_blas_thread():
            for item in share:
                # no one reads the result of a caller that is gone: under
                # fork and spawn the child is re-parented, under
                # forkserver the caller's sentinel closes
                if os.getppid() != ppid or not caller.is_alive():
                    return
                pairs.append(_point(func, item))
    except Exception as exc:
        pairs, error, trace = None, exc, traceback.format_exc()
    try:
        reply = ForkingPickler.dumps((pairs, error, trace))
        ForkingPickler.loads(reply)  # as the caller's recv will
    except Exception as exc:
        # a result or an exception that does not pickle or load back
        # reaches the caller as a RuntimeError that names it
        lost = "the results" if error is None else repr(error)
        reply = ForkingPickler.dumps((None, RuntimeError(
            f"{lost} could not be sent: {exc!r}"),
            trace or traceback.format_exc()))
    sender.send_bytes(reply)


def parallel_map(func, items, workers: int) -> list:
    """One ``(result, error)`` pair per item, in the order of ``items``,
    computed on ``n = max(1, min(workers, len(items)))`` processes: the
    caller and ``n - 1`` started ones.

    The one failure rule of every grid point: the pair is ``(func(item),
    None)``, or ``(None, "<Type>: <message>")`` when ``func`` raises one of
    the ``POINT_ERRORS``; any other exception propagates with its own type.

    The caller starts ``n - 1`` processes of the default
    ``multiprocessing`` context, none at ``n = 1``; they get ``func``
    pickled by reference under spawn.  Process ``k``, the caller being
    process 0, computes the strided share ``items[k::n]``, so a run of
    costly neighbouring grid points is split between all processes.  A
    child gets only its share and sends its pairs back in share order over
    a one-way pipe.  The
    caller reads every pipe before it joins any child, since a share
    larger than the pipe buffer would otherwise block its child, and puts
    share ``k`` at ``results[k::n]``.  A child that dies, for example by
    an OOM kill, leaves no result on its pipe, which raises
    ``BrokenProcessPool``; that is not one of the ``POINT_ERRORS`` and so
    ends the run.  A result or exception of a child that does not pickle,
    or does not load back, raises a ``RuntimeError`` that names it.  No
    child outlives the call: when the caller raises, it terminates and
    joins its children first, and a child whose caller is gone stops
    before its next item or fails its send.

    Each process computes all its items on one BLAS thread per library,
    in one ``one_blas_thread`` scope: the caller's thread counts are
    restored once, on return.  With a scope per item, which restores two
    threads after each one, the 513 1D points of ``quartic-gap.cfg`` took
    0.38-0.58 ms of wall time each on two processes and two cores, against
    0.20-0.21 ms with one scope per process."""
    with one_blas_thread():
        n = max(1, min(workers, len(items)))
        results, children = [None] * len(items), []
        try:
            for k in range(1, n):
                receiver, sender = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(
                    target=_child_share,
                    args=(receiver, sender, func, items[k::n]))
                child.start()
                children.append((child, receiver))
                # with its write end only in the child, a dead child's pipe
                # reads EOF
                sender.close()
            results[::n] = [_point(func, item) for item in items[::n]]
            for k, (child, receiver) in enumerate(children, 1):
                try:
                    pairs, error, trace = receiver.recv()
                except EOFError:
                    child.join()
                    raise BrokenProcessPool(
                        f"worker process {child.pid} ended with exit code "
                        f"{child.exitcode} before sending its results"
                    ) from None
                if error is not None:
                    raise error from RuntimeError(
                        f"in worker process {child.pid}:\n{trace}")
                results[k::n] = pairs
        except BaseException:
            for child, _ in children:
                child.terminate()
            raise
        finally:
            for child, receiver in children:
                child.join()
                receiver.close()
        return results
