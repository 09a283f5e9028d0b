"""Small statistics the harness, the layer report and compare.py share."""

from __future__ import annotations

import hashlib
import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` %
    of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _ranks(values) -> list[float]:
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0  # ties share a mean rank
        i = j + 1
    return ranks


def spearman(xs, ys) -> float:
    """Spearman rank correlation (0.0 when either side is constant)."""
    rx, ry = _ranks(xs), _ranks(ys)
    mean_x, mean_y = sum(rx) / len(rx), sum(ry) / len(ry)
    cov = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = sum((a - mean_x) ** 2 for a in rx)
    var_y = sum((b - mean_y) ** 2 for b in ry)
    if var_x == 0 or var_y == 0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def digest(keys_per_op) -> str:
    """Hash of every op's sorted result keys, in op order."""
    sha = hashlib.sha256()
    for keys in keys_per_op:
        sha.update(repr(keys).encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()[:16]
