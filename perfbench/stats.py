"""Small statistics and process helpers shared by the benchmark's parts."""

from __future__ import annotations

import math
import os
import re
import time
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

#: Metric names: a letter or digit, then up to 63 letters, digits, ``_.-``.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-quantile (0 < q <= 1), or ``None`` if undersampled.

    A tail percentile (``q > 0.5``) is reported only with at least
    :data:`MIN_SAMPLES_BEYOND` samples above its rank, so p90 needs 100
    samples; the median is reported for any non-empty sample.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    if q > 0.5 and len(ordered) - rank < MIN_SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


def harrell_davis(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile of a non-empty sample.

    A Beta-weighted mean of every order statistic, weighted around rank
    ``q * n``.  A single order statistic jumps from one mode to the other
    where a distribution has a gap at the quantile; this estimate moves
    smoothly with the sample.
    """
    import numpy as np
    from scipy.special import betainc

    ordered = np.sort(np.asarray(values, dtype=float))
    n = len(ordered)
    edges = betainc(q * (n + 1), (1 - q) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), ordered))


def _children(pid: int) -> List[int]:
    found: List[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return found
    for task in tasks:
        try:
            found.extend(int(t) for t in (task / "children").read_text().split())
        except (OSError, ValueError):
            continue
    return found


def _status_kib(pid: int, field: str) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant."""
    pids: List[int] = []
    pending = [root]
    while pending:
        pid = pending.pop()
        if pid not in pids:
            pids.append(pid)
            pending.extend(_children(pid))
    return pids


def tree_peak_rss_mb(root: Optional[int] = None) -> float:
    """Sum of the peak RSS (``VmHWM``) of a process and its live descendants.

    The kernel keeps each process's high-water mark, so reading it once,
    at the end of the measured phase, costs the measured code nothing (a
    sampling thread in the benchmark process would contend for the GIL).
    """
    pids = process_tree(os.getpid() if root is None else root)
    return sum(_status_kib(pid, "VmHWM") for pid in pids) / 1024.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def now() -> float:
    return time.perf_counter()
