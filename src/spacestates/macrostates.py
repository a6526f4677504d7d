"""Macrostates: coarse-graining classifiers and their projector algebra.

A macro partition assigns each space-state a macro label via a pure
classifier that ignores cell indices and global charged-phase offsets. The
induced projectors are basis-diagonal indicator partitions, so idempotence,
orthogonality, completeness, and commutation are checked exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .spacegraph import SpaceState, as_fraction


@dataclass(frozen=True)
class MacroPartition:
    """A named classifier from space-states to macro labels. The classifier
    must be invariant under vertex relabeling (as well as cell indices and
    global phase offsets): `branching.track` labels one state per canonical
    key and gives its label to every isomorphic state."""

    name: str
    classifier: Callable[[SpaceState], str]
    # Explicit label universe; None means the label set is open-ended.
    labels: frozenset[str] | None = None

    def label_of(self, state: SpaceState) -> str:
        return self.classifier(state)


def vertex_count_partition(width: int = 4) -> MacroPartition:
    if width < 1:
        raise ValueError("width must be >= 1")

    def classify(state: SpaceState) -> str:
        lo = (state.n // width) * width
        return f"{lo}-{lo + width - 1}" if width > 1 else str(lo)

    return MacroPartition(name=f"vertex_count(width={width})", classifier=classify)


def total_matter_partition(grid: object = 1) -> MacroPartition:
    step = as_fraction(grid)
    if step <= 0:
        raise ValueError("grid must be positive")

    def classify(state: SpaceState) -> str:
        total = sum((rec.matter_amplitude for _, rec in state.fields.fields), Fraction(0))
        idx = (total / step + Fraction(1, 2)).__floor__()
        return f"matter_{idx * step}"

    return MacroPartition(name=f"total_matter(grid={step})", classifier=classify)


def degree_histogram_partition(buckets: int = 8) -> MacroPartition:
    if buckets < 1:
        raise ValueError("buckets must be >= 1")

    def classify(state: SpaceState) -> str:
        hist = state.geometry.degree_histogram()
        digest = hashlib.sha256(repr(hist).encode("ascii")).digest()
        return f"deg_{int.from_bytes(digest[:8], 'big') % buckets}"

    return MacroPartition(
        name=f"degree_histogram(buckets={buckets})",
        classifier=classify,
        labels=frozenset(f"deg_{k}" for k in range(buckets)),
    )


_BUILTINS: dict[str, Callable[..., MacroPartition]] = {
    "vertex_count": vertex_count_partition,
    "total_matter": total_matter_partition,
    "degree_histogram": degree_histogram_partition,
}


def builtin_classifiers() -> list[MacroPartition]:
    return [factory() for factory in _BUILTINS.values()]


def partition_by_name(name: str, params: dict | None = None) -> MacroPartition:
    if name not in _BUILTINS:
        raise KeyError(f"unknown partition {name!r}; known: {sorted(_BUILTINS)}")
    return _BUILTINS[name](**(params or {}))


@dataclass
class ProjectorReport:
    basis_size: int
    labels: list[str]
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def verify_projector_algebra(partition: MacroPartition, basis: Sequence[SpaceState]) -> ProjectorReport:
    """Check idempotence, mutual orthogonality, completeness, and commutation
    of the basis-diagonal projectors induced by the partition.

    The projectors are indicator diagonals, so every check is exact integer
    arithmetic. A classifier that fails to label some state (returns None or
    raises) shows up as a completeness violation.
    """
    if not basis:
        raise ValueError("basis must be non-empty")
    labels = []
    for s in basis:
        try:
            labels.append(partition.label_of(s))
        except Exception:
            labels.append(None)
    universe = sorted({lab for lab in labels if lab is not None})
    diag = {
        lab: np.array([1 if x == lab else 0 for x in labels], dtype=np.int64) for lab in universe
    }
    report = ProjectorReport(basis_size=len(basis), labels=universe)
    for lab, d in diag.items():
        if not np.array_equal(d * d, d):
            report.violations.append(f"idempotence fails for {lab}")
    for i, la in enumerate(universe):
        for lb in universe[i + 1 :]:
            prod_ab = diag[la] * diag[lb]
            if prod_ab.any():
                report.violations.append(f"orthogonality fails for {la},{lb}")
            if not np.array_equal(prod_ab, diag[lb] * diag[la]):
                report.violations.append(f"commutation fails for {la},{lb}")
    total = sum(diag.values()) if universe else np.zeros(len(basis), dtype=np.int64)
    if not np.array_equal(total, np.ones(len(basis), dtype=np.int64)):
        missing = [i for i, x in enumerate(labels) if x is None]
        report.violations.append(f"completeness fails (unlabeled basis indices {missing})")
    return report
