"""Summary statistics and the host fingerprint shared by every workload."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest percentile that has at least ten samples beyond it.

    With ``n`` samples that is the ``(n - 11)``-th smallest value, the
    ``100 * (n - 10) / n``-th percentile.  Below eleven samples no such
    percentile exists and the maximum is reported (``pct`` = 100) so that
    the caller can tell the two cases apart.
    """
    n = len(values)
    if n == 0:
        return {"value": 0.0, "pct": 0.0, "n": 0}
    ordered = sorted(values)
    if n < 11:
        return {"value": float(ordered[-1]), "pct": 100.0, "n": n}
    return {"value": float(ordered[n - 11]), "pct": 100.0 * (n - 10) / n, "n": n}


def distribution(values: Sequence[float]) -> Dict[str, float]:
    """Median plus :func:`tail`, with the sample count."""
    t = tail(values)
    return {"p50": median(values), "tail": t["value"], "tail_pct": t["pct"], "n": len(values)}


def _command_line(cmd: List[str]) -> Optional[str]:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    text = out.stdout.strip()
    return text.splitlines()[0] if out.returncode == 0 and text else None


def _blas() -> Optional[str]:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # NumPy < 1.25 has no dict mode
        return None
    blas = (config or {}).get("Build Dependencies", {}).get("blas", {})
    if not blas:
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def fingerprint(root: Path, seed: int) -> Dict[str, object]:
    """What a number needs next to it to be comparable with another."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas(),
        "cc": _command_line(["cc", "--version"]),
        # None when the checkout is not a git repository.
        "git_sha": _command_line(["git", "-C", str(root), "rev-parse", "HEAD"]),
        "seed": seed,
    }
