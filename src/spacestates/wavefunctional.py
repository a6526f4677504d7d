"""Sparse wavefunctional over space-state basis elements.

Entries are keyed by (canonical graph key, cell index), so equal physical
basis states never occupy two entries. Amplitudes below the prune tolerance
are dropped after every construction. Gauge absorption writes the
wavefunctional in polar form: each complex amplitude r*e^{i theta} becomes a
non-negative density r on the entry's own (unrotated) state, with theta kept
beside it in a gauge log. Absorbing theta into the global U(1) gauge shifts
every charged phase of the state by theta; that state is built only on
request (`DensitizedView.absorbed_state`), since the gauge class is what is
invariant and every builtin macro partition is phase-blind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .macrostates import MacroPartition
from .spacegraph import TWO_PI, Phase, SpaceState, canonicalize, ssg1_dumps, ssg1_loads

PRUNE_TOLERANCE = 1e-14

EntryKey = tuple[bytes, tuple[int, ...]]


class ZeroState(Exception):
    """Raised when an operation needs a nonzero state."""


class NoChargedField(Exception):
    """Raised when a basis state has no charged vertex to absorb a phase."""


class UnknownLabel(Exception):
    """Raised when a macro label is not part of the partition."""


def entry_key(state: SpaceState) -> EntryKey:
    return (canonicalize(state), state.cell_index)


@dataclass(frozen=True)
class Wavefunctional:
    """Sparse map from basis keys to (state, complex amplitude).

    Instances are treated as immutable; every operation returns a new value.
    """

    entries: dict[EntryKey, tuple[SpaceState, complex]]
    epoch: int = 0

    @classmethod
    def from_states(
        cls, pairs: Iterable[tuple[SpaceState, complex]], epoch: int = 0
    ) -> "Wavefunctional":
        acc: dict[EntryKey, tuple[SpaceState, complex]] = {}
        for state, amp in pairs:
            key = entry_key(state)
            if key in acc:
                acc[key] = (acc[key][0], acc[key][1] + complex(amp))
            else:
                acc[key] = (state, complex(amp))
        pruned = {k: v for k, v in sorted(acc.items()) if abs(v[1]) > PRUNE_TOLERANCE}
        return cls(pruned, epoch)

    def sorted_keys(self) -> list[EntryKey]:
        return sorted(self.entries)

    def amplitude(self, state: SpaceState) -> complex:
        hit = self.entries.get(entry_key(state))
        return hit[1] if hit else 0j

    def states(self) -> Iterator[SpaceState]:
        for key in self.sorted_keys():
            yield self.entries[key][0]

    def __len__(self) -> int:
        return len(self.entries)


def inner_product(a: Wavefunctional, b: Wavefunctional) -> complex:
    """Hermitian scalar product; summation runs in sorted key order so the
    result is independent of construction order."""
    total = 0j
    for key in sorted(set(a.entries) & set(b.entries)):
        total += a.entries[key][1].conjugate() * b.entries[key][1]
    return total


def norm(psi: Wavefunctional) -> float:
    return math.sqrt(sum(abs(psi.entries[k][1]) ** 2 for k in psi.sorted_keys()))


def normalize(psi: Wavefunctional) -> Wavefunctional:
    n = norm(psi)
    if n == 0.0:
        raise ZeroState("cannot normalize the zero state")
    scaled = {k: (s, amp / n) for k, (s, amp) in psi.entries.items()}
    return Wavefunctional(scaled, psi.epoch)


def gauge_rotate(psi: Wavefunctional, theta: float) -> Wavefunctional:
    """Multiply every amplitude by e^{i theta} and shift every charged phase
    by theta: the same physical state in a different gauge representative."""
    turns = Phase.from_radians(theta).turns
    factor = complex(math.cos(theta), math.sin(theta))
    out = {}
    for key in psi.sorted_keys():
        state, amp = psi.entries[key]
        if not state.charged_vertices():
            raise NoChargedField("state has no charged vertex to absorb the phase")
        rotated = state.gauge_rotated(turns)
        out[entry_key(rotated)] = (rotated, amp * factor)
    return Wavefunctional(dict(sorted(out.items())), psi.epoch)


@dataclass(frozen=True)
class DensitizedView:
    """The wavefunctional in polar form: non-negative densities, with the
    phases kept in gauge_log.

    Keys match the source wavefunctional entry for entry, and each entry's
    state is the source entry's state object itself, not a gauge-shifted
    copy. absorbed_state() builds the state with the phase absorbed;
    reconstruct() reproduces the source exactly.
    """

    entries: dict[EntryKey, tuple[SpaceState, float]]
    gauge_log: dict[EntryKey, float]
    epoch: int = 0

    def sorted_keys(self) -> list[EntryKey]:
        return sorted(self.entries)

    def absorbed_state(self, key: EntryKey) -> SpaceState:
        """The entry's state with its phase theta absorbed into the global
        U(1) gauge: every charged phase shifted by theta. It has the stored
        state's gauge key, so every builtin macro partition labels the two
        alike."""
        return self.entries[key][0].gauge_rotated(Phase.from_radians(self.gauge_log[key]).turns)

    def __len__(self) -> int:
        return len(self.entries)


def gauge_absorb(psi: Wavefunctional) -> DensitizedView:
    """Rewrite each entry's amplitude in polar form: the density r on the
    entry's state, the phase theta in the gauge log. Refuses a state with no
    charged vertex, which could not absorb the phase."""
    entries: dict[EntryKey, tuple[SpaceState, float]] = {}
    gauge_log: dict[EntryKey, float] = {}
    for key in psi.sorted_keys():
        state, amp = psi.entries[key]
        r = abs(amp)
        if r == 0.0:
            continue
        if not state.charged_vertices():
            raise NoChargedField("state has no charged vertex to absorb the phase")
        entries[key] = (state, r)
        gauge_log[key] = math.atan2(amp.imag, amp.real) % TWO_PI
    return DensitizedView(entries, gauge_log, psi.epoch)


def reconstruct(view: DensitizedView) -> Wavefunctional:
    """Inverse of gauge_absorb: amplitude r*e^{i theta} on the stored state.
    States are the source's own; amplitudes round-trip to ~1e-16."""
    pairs = {}
    for key in view.sorted_keys():
        state, r = view.entries[key]
        theta = view.gauge_log[key]
        pairs[key] = (state, complex(r * math.cos(theta), r * math.sin(theta)))
    return Wavefunctional(pairs, view.epoch)


def _check_label(partition: MacroPartition, alpha: str) -> None:
    if partition.labels is not None and alpha not in partition.labels:
        raise UnknownLabel(f"{alpha!r} is not a label of partition {partition.name}")


def project(psi: Wavefunctional, partition: MacroPartition, alpha: str) -> Wavefunctional:
    """Keep exactly the entries whose macro label is alpha. Idempotent."""
    _check_label(partition, alpha)
    kept = {
        k: (s, amp) for k, (s, amp) in psi.entries.items() if partition.label_of(s) == alpha
    }
    return Wavefunctional(dict(sorted(kept.items())), psi.epoch)


def macro_weight(psi: Wavefunctional, partition: MacroPartition, alpha: str) -> float:
    """Squared norm of the projection onto the macro label alpha."""
    _check_label(partition, alpha)
    return sum(
        abs(psi.entries[k][1]) ** 2
        for k in psi.sorted_keys()
        if partition.label_of(psi.entries[k][0]) == alpha
    )


def macro_weights(psi: Wavefunctional, partition: MacroPartition) -> dict[str, float]:
    out: dict[str, float] = {}
    for k in psi.sorted_keys():
        state, amp = psi.entries[k]
        lab = partition.label_of(state)
        out[lab] = out.get(lab, 0.0) + abs(amp) ** 2
    return dict(sorted(out.items()))


def restricted_sq_norm(view: DensitizedView, partition: MacroPartition, alpha: str) -> float:
    """Squared norm of the density-weighted state restricted to one macro
    label; equals macro_weight of the source wavefunctional."""
    _check_label(partition, alpha)
    return sum(
        view.entries[k][1] ** 2
        for k in view.sorted_keys()
        if partition.label_of(view.entries[k][0]) == alpha
    )


# ---------------------------------------------------------------------------
# WFN1: versioned state dump. One record per entry: canonical key (hex), cell
# bits, amplitude as decimal strings, then the SSG1 block of the state. The
# loader checks every key against its state and the header's entry count
# against the records, so a corrupted or truncated dump is refused.
# ---------------------------------------------------------------------------


def wfn1_dumps(psi: Wavefunctional) -> str:
    lines = [f"WFN1 epoch={psi.epoch} entries={len(psi.entries)}"]
    for key in psi.sorted_keys():
        state, amp = psi.entries[key]
        ckey, cell = key
        bits = "".join(str(b) for b in cell) or "-"
        lines.append(f"entry {ckey.hex()} {bits} {amp.real!r} {amp.imag!r}")
        lines.append(ssg1_dumps(state).rstrip("\n"))
        lines.append("end")
    return "\n".join(lines) + "\n"


def wfn1_loads(text: str) -> Wavefunctional:
    """Parse WFN1 text. Every error names the 1-based line at fault."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("WFN1"):
        raise ValueError("missing WFN1 header on line 1")
    try:
        header = dict(part.split("=") for part in lines[0].split()[1:])
        epoch = int(header.get("epoch", 0))
        count = int(header["entries"])
    except (KeyError, ValueError):
        raise ValueError(f"bad WFN1 header on line 1: {lines[0]!r}") from None
    pairs = []
    i = 1
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        parts = lines[i].split()
        at = i + 1
        try:
            if parts[0] != "entry" or len(parts) != 5:
                raise ValueError("not an 'entry' record")
            if parts[2] != "-" and set(parts[2]) - {"0", "1"}:
                raise ValueError("cell bits must be 0s and 1s, or '-'")
            bits = () if parts[2] == "-" else tuple(int(c) for c in parts[2])
            amp = complex(float(parts[3]), float(parts[4]))
            if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
                raise ValueError("amplitude must be finite")
        except ValueError as exc:
            raise ValueError(f"bad WFN1 record on line {at}: {lines[i]!r} ({exc})") from None
        block = []
        i += 1
        first = i
        while i < len(lines) and lines[i].strip() != "end":
            block.append(lines[i])
            i += 1
        if i == len(lines):
            raise ValueError(f"WFN1 entry on line {at} ends before its 'end' line")
        i += 1
        state = ssg1_loads("\n".join(block), first_line=first + 1).with_cell_index(bits)
        # The key is labeled here once and reused by `from_states`.
        if state.canonical_key.hex() != parts[1]:
            raise ValueError(f"WFN1 entry key on line {at} does not match its state's canonical key")
        pairs.append((state, amp))
    if len(pairs) != count:
        raise ValueError(f"WFN1 header on line 1 says entries={count}, but {len(pairs)} entries follow")
    return Wavefunctional.from_states(pairs, epoch=epoch)
