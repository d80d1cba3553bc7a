"""One benchmark request: a fresh interpreter running one ``hybridq.cli.run``.

Usage: python3 perfbench/child.py REQUEST_DIR [--trace | --probe]

REQUEST_DIR holds ``config.cfg``; the child writes ``result.json`` there.
Set-up (interpreter start, ``import hybridq`` and the first LAPACK calls)
ends at ``t_ready``, a CLOCK_MONOTONIC reading the parent compares with
its own spawn time.  ``--probe`` stops after set-up.  ``--trace`` installs
the layer spans before the run; they start after the warm-up, so the
one-off cost of the first LAPACK call stays in set-up.
"""

import ctypes
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy.linalg  # noqa: E402
from hybridq import cli  # noqa: E402


def warm_up() -> None:
    """First calls of the LAPACK drivers the solver uses (dsyevd, zhegvd)."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    skew = np.triu(a, 1) - np.triu(a, 1).T
    np.linalg.eigvalsh(a + a.T)
    scipy.linalg.eigh(a + a.T + 1j * skew, a @ a.T + 256 * np.eye(256),
                      driver="gvd")


def blas_facts() -> list[dict]:
    """Each OpenBLAS loaded in this process, with its threads in effect."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower()})
    facts = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for stem in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                if hasattr(lib, f"{stem}get_num_threads{suffix}"):
                    threads = getattr(lib, f"{stem}get_num_threads{suffix}")
                    config = getattr(lib, f"{stem}get_config{suffix}")
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
        facts.append(entry)
    return facts


def main() -> None:
    request = sys.argv[1]
    mode = sys.argv[2] if len(sys.argv) > 2 else ""
    warm_up()
    result = {"t_ready": time.monotonic()}
    if mode != "--probe":
        cfg = cli.load_config(os.path.join(request, "config.cfg"))
        tracer, run = None, cli.run
        if mode == "--trace":
            import tracing
            spool = os.path.join(request, "spool")
            os.mkdir(spool)
            tracer = tracing.Tracer(spool)
            tracing.install(tracer)
            run = tracer.wrap("cli", cli.run)
        start = time.perf_counter()
        status = run(cfg).status
        result["wall_s"] = time.perf_counter() - start
        result["status"] = status
        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        workers = cfg.workers or 1
        # ru_maxrss is in KiB; RUSAGE_CHILDREN holds the largest worker's
        # peak, counted once per worker
        result["peak_rss_mb"] = (rss_self + (rss_workers * workers
                                             if workers > 1 else 0)) / 1024
        result["blas"] = blas_facts()
        if tracer:
            result["main"] = tracer.totals()
            result["workers"] = tracer.spooled()
    with open(os.path.join(request, "result.json"), "w",
              encoding="utf-8") as out:
        json.dump(result, out)


if __name__ == "__main__":
    main()
