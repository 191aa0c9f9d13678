"""Metric arithmetic and output checks for the eus benchmark.

Everything here works on raw samples that the harness binary wrote; nothing
reads the program's own histograms.  perfbench/test_benchlib.py covers it:

    python3 -m unittest discover -s perfbench
"""

import hashlib
import math

# At least this many samples must lie beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(samples, q, min_beyond=MIN_BEYOND):
    """Nearest-rank q-quantile of raw samples, with its sample count.

    Returns (value, n).  Raises InsufficientSamples unless at least
    `min_beyond` samples lie strictly above the reported rank, so a p99 needs
    1000 samples and a p50 needs 20.
    """
    values = sorted(samples)
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n == 0 or n - rank < min_beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {n} samples leaves {max(0, n - rank)} beyond it, "
            f"need {min_beyond}")
    return values[rank - 1], n


def median(values):
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return values[mid] if n % 2 else 0.5 * (values[mid - 1] + values[mid])


def is_nondominated(front):
    """True when no point of `front` dominates another.  Points are
    (energy, utility): energy is minimized, utility maximized."""
    # p is dominated iff a point with less energy has at least its utility,
    # or a point with equal energy has more.  Equal points do not dominate
    # each other, so duplicates are allowed.
    best_lower_energy = -math.inf
    points = sorted(front)
    i = 0
    while i < len(points):
        j = i
        while j < len(points) and points[j][0] == points[i][0]:
            j += 1
        group_best = points[j - 1][1]
        for _, u in points[i:j]:
            if u <= best_lower_energy or u < group_best:
                return False
        best_lower_energy = max(best_lower_energy, group_best)
        i = j
    return True


def hypervolume(front, ref_energy, ref_utility):
    """Exact 2-D area dominated by `front` and bounded by the reference
    point (ref_energy, ref_utility).  Points at or beyond the reference in
    either objective add nothing; dominated points are ignored."""
    points = sorted((e, u) for e, u in front if e < ref_energy and u > ref_utility)
    area = 0.0
    staircase = []
    for e, u in points:
        if not staircase or u > staircase[-1][1]:
            if staircase and staircase[-1][0] == e:
                staircase.pop()
            staircase.append((e, u))
    for i, (e, u) in enumerate(staircase):
        right = staircase[i + 1][0] if i + 1 < len(staircase) else ref_energy
        area += (right - e) * (u - ref_utility)
    return area


def normalized_hv(front, energy_lower, utility_upper):
    """Hypervolume as a share of the box between the ideal point
    (energy_lower, utility_upper) from sched::compute_bounds and the
    reference point (2 * energy_lower, 0).  The box depends only on the
    scenario, so values compare across runs and commits."""
    box = energy_lower * utility_upper
    if not box > 0:
        raise ValueError("degenerate bounds")
    return hypervolume(front, 2.0 * energy_lower, 0.0) / box


def within_bounds(front, energy_lower, utility_upper, rel=1e-9):
    """No point beats the analytic bounds (up to summation rounding)."""
    return all(e >= energy_lower * (1 - rel) and u <= utility_upper * (1 + rel)
               for e, u in front)


def front_digest(fronts):
    """SHA-256 over nested fronts, exact to the last bit of every double."""
    h = hashlib.sha256()

    def feed(node):
        if isinstance(node, (list, tuple)):
            h.update(b"[")
            for item in node:
                feed(item)
            h.update(b"]")
        else:
            h.update(float(node).hex().encode())
            h.update(b",")

    feed(fronts)
    return h.hexdigest()


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover.

    `spans` is a list of dicts with start_s, end_s and parent (the index of
    the enclosing span, -1 for a root).  Overlapping children count once.
    """
    children = {}
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(i)
    result = []
    for i, s in enumerate(spans):
        start, end = s["start_s"], s["end_s"]
        covered = 0.0
        cursor = start
        for lo, hi in sorted((max(spans[c]["start_s"], start),
                              min(spans[c]["end_s"], end))
                             for c in children.get(i, [])):
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(max(0.0, end - start) - covered)
    return result
