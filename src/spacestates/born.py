"""Macrostate probabilities by counting equal-weight refinement cells.

A densitized view is laid out on a line of exact integer squared weights,
items ordered macro label first and then by basis key, so each label holds
one span [a, b) of the total weight T. The dyadic refinement at depth n cuts
the line into 2^n cells of equal weight, cell i covering
[i*T/2^n, (i+1)*T/2^n). Counting the cells that lie entirely inside one
label's span estimates that label's weight, with error bounded by the number
of straddling cells over 2^n.

Both counts have a closed form, so no cell is ever built:

    n_alpha    = max(0, floor(b*2^n/T) - ceil(a*2^n/T))
    straddlers = #{floor(x*2^n/T) : x an interior label boundary,
                                    x*2^n mod T != 0}

Squared float weights have power-of-two denominators, so the line is exact
in integers and every floor and ceiling above is an exact integer division.
Each depth costs O(labels) time and no memory beyond the item list.
`reference.bisection_refinement` keeps the materialized greedy bisection
this replaces, as the oracle the closed form is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .macrostates import MacroPartition
from .spacegraph import SpaceState
from .wavefunctional import DensitizedView, EntryKey

MAX_DEPTH = 24

# Sampler guide-table buckets per state, as a power of two (B is the least
# power of two of at least 16 K for K states), and raw Philox words per
# chunk. A chunk's words take 64 KiB, as do its bucket counts up to 512
# states: under glibc's default 128 KiB mmap threshold, so a chunk maps no
# fresh pages.
BUCKET_SHIFT = 4
DRAW_CHUNK = 1 << 13


class DepthExceeded(Exception):
    """Raised when a refinement deeper than MAX_DEPTH is requested."""


@dataclass
class Refinement:
    """A view's squared weights on an exact integer line: `items` holds the
    positive-weight (key, weight) pairs in line order, weights in units of
    1/scale. Counts are available at every depth in [0, depth]."""

    depth: int
    scale: int
    items: list[tuple[EntryKey, int]]
    states: dict[EntryKey, SpaceState]
    _spans: dict[MacroPartition, list[tuple[str, int, int]]] = field(default_factory=dict, repr=False)

    def spans(self, partition: MacroPartition) -> list[tuple[str, int, int]]:
        """Maximal runs of one label along the line, as (label, a, b),
        memoized per partition object (classifiers compare by identity)."""
        spans = self._spans.get(partition)
        if spans is None:
            spans = []
            lo = 0
            for key, weight in self.items:
                label = partition.label_of(self.states[key])
                if spans and spans[-1][0] == label:
                    spans[-1] = (label, spans[-1][1], lo + weight)
                else:
                    spans.append((label, lo, lo + weight))
                lo += weight
            self._spans[partition] = spans
        return spans


def build_refinement(
    view: DensitizedView, depth_max: int, partition: MacroPartition | None = None
) -> Refinement:
    """Place the view's exact squared weights on the integer line.

    Items are ordered macro-label first (when a partition is given), then by
    basis key, which keeps labels contiguous and the straddling-cell count
    below the number of labels.
    """
    if depth_max < 0 or depth_max > MAX_DEPTH:
        raise DepthExceeded(f"depth_max must be in [0, {MAX_DEPTH}]")
    if len(view) == 0:
        raise ValueError("cannot refine an empty view")

    keys = view.sorted_keys()
    sq_weights = {k: Fraction(view.entries[k][1]) ** 2 for k in keys}
    states = {k: view.entries[k][0] for k in keys}
    if partition is not None:
        labels = {k: partition.label_of(s) for k, s in states.items()}
        order = sorted(keys, key=lambda k: (labels[k], k))
    else:
        order = keys

    # Squared float weights have power-of-two denominators, so the largest
    # one is a common denominator.
    scale = max(sq.denominator for sq in sq_weights.values())
    items = [(k, int(sq_weights[k] * scale)) for k in order if sq_weights[k] > 0]
    total_exact = Fraction(sum(weight for _key, weight in items), scale)
    if abs(total_exact - 1) > Fraction(1, 10**12):
        raise ValueError(f"view is not normalized: total squared weight {float(total_exact)!r}")
    return Refinement(depth_max, scale, items, states)


@dataclass
class LabelCount:
    label: str
    n_alpha: int
    estimate: Fraction
    exact: Fraction
    bound: Fraction


@dataclass
class CountReport:
    depth: int
    straddlers: int
    per_label: list[LabelCount]

    def by_label(self) -> dict[str, LabelCount]:
        return {lc.label: lc for lc in self.per_label}


def count_estimate(refinement: Refinement, partition: MacroPartition, depth: int) -> CountReport:
    """Per-label counting estimate n_alpha / 2^depth with its straddler
    error bound and the exact label weights."""
    if not (0 <= depth <= refinement.depth):
        raise ValueError(f"depth {depth} outside refinement depth {refinement.depth}")
    spans = refinement.spans(partition)
    total = spans[-1][2]
    cells_total = 2**depth
    counts: dict[str, int] = {}
    units: dict[str, int] = {}
    for label, a, b in spans:
        # floor(b*2^n/T) - ceil(a*2^n/T), written with floor divisions only.
        inside = (b * cells_total) // total + (-a * cells_total) // total
        counts[label] = counts.get(label, 0) + max(0, inside)
        units[label] = units.get(label, 0) + b - a
    straddlers = len(
        {(a * cells_total) // total for _label, a, _b in spans[1:] if (a * cells_total) % total}
    )
    bound = Fraction(straddlers, cells_total)
    per_label = [
        LabelCount(
            label=lab,
            n_alpha=counts[lab],
            estimate=Fraction(counts[lab], cells_total),
            exact=Fraction(units[lab], refinement.scale),
            bound=bound,
        )
        for lab in sorted(counts)
    ]
    return CountReport(depth=depth, straddlers=straddlers, per_label=per_label)


def _draw_counts(probs: np.ndarray, samples: int, seed: int) -> np.ndarray:
    """Per-index counts of `samples` inverse-CDF draws from `probs`.

    Each Philox draw d in [0, 1) picks index min(#{cum_j < d}, K-1), as one
    `searchsorted` over all draws would (`reference.oneshot_draw_counts`);
    that is #{c_j < d} over the K-1 cuts c = cum[:-1], with no clamp. Draws
    are located through a guide table of B = 2^b dyadic buckets (Chen &
    Asau 1974), B the least power of two of at least 2^BUCKET_SHIFT * K.
    `Generator.random` makes d from a raw 64-bit word w as (w >> 11) * 2^-53,
    so d's exact bucket floor(d * B) is w >> (64 - b) and is counted with
    no double made. Every draw in a bucket [i/B, (i+1)/B) holding no cut
    gets the index #{c_j < i/B}, in one scatter at the end; only the draws
    in the at most K-1 buckets holding a cut are made doubles and searched.
    Words come in chunks of DRAW_CHUNK, which Philox yields bit for bit as
    one array would, so memory is O(K + DRAW_CHUNK) for any `samples`.
    """
    cuts = np.cumsum(probs)[:-1]
    bits = (len(probs) - 1).bit_length() + BUCKET_SHIFT
    buckets = 1 << bits
    below = np.searchsorted(cuts, np.arange(buckets + 1) / buckets, side="left")
    mixed = below[1:] > below[:-1]
    bitgen = np.random.Philox(seed)
    per_bucket = np.zeros(buckets, dtype=np.intp)
    counts = np.zeros(len(probs), dtype=np.intp)
    for done in range(0, samples, DRAW_CHUNK):
        words = bitgen.random_raw(min(DRAW_CHUNK, samples - done))
        # Each bucket is below 2^b <= 2^53, so viewing it as signed is exact.
        bucket = (words >> (64 - bits)).view(np.int64)
        per_bucket += np.bincount(bucket, minlength=buckets)
        draws = (words[mixed[bucket]] >> 11) * 2.0**-53
        counts += np.bincount(np.searchsorted(cuts, draws, side="left"), minlength=len(probs))
    # Integer adds, so exact for any total below 2^63.
    np.add.at(counts, below[:-1][~mixed], per_bucket[~mixed])
    return counts


def sample_selflocation(
    view: DensitizedView, partition: MacroPartition, samples: int, seed: int
) -> dict[str, float]:
    """Draw seeded i.i.d. micro-states with probability proportional to the
    squared density and report empirical macro-label frequencies.

    Uses a counter-based generator, so results are reproducible for a
    fixed seed. Draws are counted in fixed chunks of raw words through an
    exact guide table sized from the support (`_draw_counts`), so memory is
    O(support) for any `samples` and the counts equal those of one
    inverse-CDF search over all draws.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    keys = view.sorted_keys()
    probs = np.array([view.entries[k][1] ** 2 for k in keys], dtype=float)
    probs /= probs.sum()
    labels = [partition.label_of(view.entries[k][0]) for k in keys]
    counts = _draw_counts(probs, samples, seed)
    freqs: dict[str, float] = {}
    for lab, c in zip(labels, counts):
        freqs[lab] = freqs.get(lab, 0.0) + int(c) / samples
    return dict(sorted(freqs.items()))
