"""Where the package comes from, and what the machine looked like during a run.

The benchmark measures the gatecalc sources of the checkout it lives in,
never an installed copy, and reads only its own process and /proc.
"""

from __future__ import annotations

import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingPackage(RuntimeError):
    pass


def use_checkout_package() -> None:
    """Put the checkout's src/ first on the import path, or fail."""
    if not (SRC / "gatecalc" / "__init__.py").is_file():
        raise MissingPackage(f"no gatecalc sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    if SRC not in Path(module.__file__).resolve().parents:
        raise MissingPackage(f"gatecalc imported from {module.__file__}, not from {SRC}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def loadavg() -> list[float]:
    return list(os.getloadavg())


# What reference_work() takes on a 2-vCPU x86_64 VM (Xeon at 2.0 GHz,
# Python 3.11.7) when nothing else slows it, the machine the baseline in
# interactions.json was recorded on. Serving and set-up times are reported
# scaled to that speed; see speed_factor.
REFERENCE_NS = 1_600_000


_REFERENCE_KEYS = frozenset(str(i) for i in range(0, 97, 3))


def reference_work() -> int:
    """Fixed pure-Python work of the same kind as the package's: calls,
    string and set operations, float arithmetic. It allocates no object
    the cyclic garbage collector tracks, so a collection of the program's
    garbage never lands inside it."""
    acc = 0
    for i in range(4000):
        key = str(i % 97)
        acc += len(key) + int(float(i) * 0.5) % 7
        if key in _REFERENCE_KEYS:
            acc += 1
    return acc


def reference_ns(runs: int = 1) -> float:
    """Mean time of reference_work() over runs back-to-back runs."""
    t0 = perf_counter_ns()
    for _ in range(runs):
        reference_work()
    return (perf_counter_ns() - t0) / runs


def speed_factor(before_ns: int, after_ns: int) -> float:
    """Scale from wall time to time at reference speed, for work that ran
    between two reference measurements.

    On a shared 2-vCPU VM, pure-Python code runs at speeds that swing by
    up to half from one 10 ms slice to the next, with load elsewhere on
    the host. There, dividing serving time by the reference time on both
    sides of it cut the run-to-run spread of the serving metrics from
    10-20% to 2-5%; raw wall times stay in the report.
    """
    return 2 * REFERENCE_NS / (before_ns + after_ns)
