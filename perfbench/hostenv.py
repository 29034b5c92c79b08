"""What a result needs to be compared with another: the host and the code."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import statistics
import threading
import time

import numpy as np


def host_probe_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop; a slower host reads higher.

    Taken before and after every run and never gated: it tells host drift
    from a change in the code.
    """
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, or None when it cannot be asked."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit(root: str) -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(src: str) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def record(root: str, src: str, seed: int) -> dict:
    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "commit": _commit(root),
        "src_sha256": source_digest(src),
        "seed": seed,
    }


class CpuRotation:
    """Moves the calling thread round the CPUs it may use, one step per period.

    On a virtual machine the vCPUs run at different speeds for tens of seconds
    at a time (their host cores are shared).  A run that stays on one vCPU
    reads that vCPU's speed; rotating gives every pass the average of all of
    them, which varies much less from run to run.  Only this thread's own
    affinity changes, and the original set is restored on exit.
    """

    def __init__(self, period_s: float = 0.1) -> None:
        self.period_s = period_s
        self.tid = threading.get_native_id()
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._rotate, name="cpu-rotation", daemon=True)

    def _rotate(self) -> None:
        step = 0
        while not self._stop.wait(self.period_s):
            step += 1
            os.sched_setaffinity(self.tid, {self.cpus[step % len(self.cpus)]})

    def __enter__(self) -> "CpuRotation":
        if len(self.cpus) > 1:
            os.sched_setaffinity(self.tid, {self.cpus[0]})
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        if self._thread.is_alive():
            self._stop.set()
            self._thread.join()
        if self.cpus:
            os.sched_setaffinity(self.tid, set(self.cpus))
