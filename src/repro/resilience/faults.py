"""Deterministic fault injection for the MorphCache simulator.

A :class:`FaultPlan` is a *pure function* from epoch number to the fault
events that start at that epoch — no hidden state, so a plan queried during
a checkpoint-resume replay produces exactly the events of the original run.
All randomness (random targets, the ``random`` rule's event draws) is
derived from ``(plan seed, epoch)``, never from a shared stream.

Supported fault kinds:

- ``flip-acfv`` — flip ``bits`` random bits in one core's ACFV at one level,
  modelling soft errors in the footprint-tracking SRAM;
- ``disable-slice`` — take a whole L2/L3 slice offline for ``duration``
  epochs (its contents are flushed and lookups/fills skip it), modelling a
  hard slice failure with recovery;
- ``bus-stall`` — the segmented-bus arbiter of the affected epoch(s) stalls:
  every merged-group remote hit pays ``penalty`` extra cycles;
- ``drop-grant`` — a transient arbiter glitch: like ``bus-stall`` but
  one epoch and a smaller default penalty;
- ``corrupt-topology`` — scribble over the controller's topology state
  (duplicate or drop a slice from a group), modelling controller SRAM
  corruption.  The invariant guard must catch this before the grouping
  reaches the cache hierarchy.

Plans are built programmatically (:meth:`FaultPlan.periodic`,
:meth:`FaultPlan.random_plan`) or parsed from a compact spec string
(:func:`parse_fault_spec`) for the ``--faults`` CLI flag, e.g.::

    disable-slice:every=10:level=l3:duration=2,flip-acfv:at=5:bits=8,seed=7
    random:rate=0.25:kinds=flip-acfv+disable-slice,seed=11
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.resilience.errors import ConfigError, FaultInjectedError

FAULT_KINDS = (
    "flip-acfv",
    "disable-slice",
    "bus-stall",
    "drop-grant",
    "corrupt-topology",
)

#: Default remote-hit penalty in cycles per kind (see module docstring).
_DEFAULT_PENALTY = {"bus-stall": 20, "drop-grant": 8}


@dataclass(frozen=True)
class FaultEvent:
    """One concrete fault starting at a given epoch."""

    epoch: int
    kind: str
    level: str = "l2"
    target: int = -1
    """Core (flip-acfv) or slice (disable-slice); -1 = deterministic random."""

    duration: int = 1
    """Epochs the fault stays active (disable-slice, bus-stall)."""

    bits: int = 4
    """Bits flipped per flip-acfv event."""

    penalty: int = 20
    """Extra remote-hit cycles while a bus fault is active."""


@dataclass(frozen=True)
class FaultRule:
    """A generator of :class:`FaultEvent`\\ s; either one-shot or periodic.

    ``at`` fires once at that epoch; ``every`` fires at each multiple of
    ``every`` at or after ``start``.  ``rate`` (with kind ``random``) fires a
    random kind from ``kinds`` with that probability each epoch.
    """

    kind: str
    at: Optional[int] = None
    every: Optional[int] = None
    start: int = 0
    duration: int = 1
    level: str = "l2"
    target: int = -1
    bits: int = 4
    penalty: int = -1  # -1 = kind default
    rate: float = 0.0
    kinds: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind != "random" and self.kind not in FAULT_KINDS:
            raise ConfigError("kind", f"unknown fault kind {self.kind!r}; "
                                      f"expected one of {sorted(FAULT_KINDS)}")
        if self.kind == "random":
            if not 0.0 < self.rate <= 1.0:
                raise ConfigError("rate", f"must be in (0, 1], got {self.rate}")
            for kind in self.kinds:
                if kind not in FAULT_KINDS:
                    raise ConfigError("kinds", f"unknown fault kind {kind!r}")
        elif self.at is None and self.every is None:
            raise ConfigError("at/every",
                              f"rule {self.kind!r} needs at=E or every=N")
        if self.every is not None and self.every <= 0:
            raise ConfigError("every", f"must be positive, got {self.every}")
        if self.duration <= 0:
            raise ConfigError("duration", f"must be positive, got {self.duration}")
        if self.level not in ("l2", "l3"):
            raise ConfigError("level", f"must be 'l2' or 'l3', got {self.level!r}")
        if self.bits <= 0:
            raise ConfigError("bits", f"must be positive, got {self.bits}")

    def fires_at(self, epoch: int) -> bool:
        if self.at is not None and epoch == self.at:
            return True
        if self.every is not None:
            return epoch >= self.start and (epoch - self.start) % self.every == 0
        return False

    def event(self, epoch: int, kind: Optional[str] = None) -> FaultEvent:
        kind = kind or self.kind
        penalty = self.penalty if self.penalty >= 0 else _DEFAULT_PENALTY.get(kind, 20)
        return FaultEvent(epoch=epoch, kind=kind, level=self.level,
                          target=self.target, duration=self.duration,
                          bits=self.bits, penalty=penalty)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of fault events."""

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    name: str = ""

    def events_at(self, epoch: int) -> List[FaultEvent]:
        """All fault events *starting* at ``epoch`` (pure, replay-safe)."""
        events: List[FaultEvent] = []
        for index, rule in enumerate(self.rules):
            if rule.kind == "random":
                rng = np.random.default_rng((self.seed, index, epoch))
                if rng.random() < rule.rate:
                    kinds = rule.kinds or FAULT_KINDS
                    kind = kinds[int(rng.integers(0, len(kinds)))]
                    events.append(rule.event(epoch, kind=kind))
            elif rule.fires_at(epoch):
                events.append(rule.event(epoch))
        return events

    def __bool__(self) -> bool:
        return bool(self.rules)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def periodic(kind: str, every: int, **fields) -> "FaultPlan":
        """A plan with one periodic rule (``kind`` every ``every`` epochs)."""
        seed = fields.pop("seed", 0)
        return FaultPlan(rules=(FaultRule(kind=kind, every=every, **fields),),
                         seed=seed, name=f"{kind}/{every}")

    @staticmethod
    def random_plan(rate: float, seed: int = 0,
                    kinds: Sequence[str] = FAULT_KINDS, **fields) -> "FaultPlan":
        """A plan injecting a random kind with probability ``rate``/epoch."""
        rule = FaultRule(kind="random", rate=rate, kinds=tuple(kinds), **fields)
        return FaultPlan(rules=(rule,), seed=seed, name=f"random/{rate}")


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse the compact ``--faults`` spec string into a :class:`FaultPlan`.

    Comma-separated clauses; each clause is ``kind:key=value:...`` or a
    bare ``seed=K`` / ``name=N`` plan field.  Raises :class:`ConfigError`
    on any malformed clause, naming the offending token.
    """
    rules: List[FaultRule] = []
    seed = 0
    name = ""
    for clause in (c.strip() for c in spec.split(",") if c.strip()):
        if clause.startswith("seed="):
            seed = _parse_int("seed", clause[5:])
            continue
        if clause.startswith("name="):
            name = clause[5:]
            continue
        parts = clause.split(":")
        kind = parts[0]
        fields: Dict[str, object] = {}
        for part in parts[1:]:
            if "=" not in part:
                raise ConfigError("faults", f"expected key=value, got {part!r} "
                                            f"in clause {clause!r}")
            key, value = part.split("=", 1)
            if key in ("at", "every", "start", "duration", "target", "bits",
                       "penalty"):
                fields[key] = _parse_int(key, value)
            elif key == "rate":
                try:
                    fields[key] = float(value)
                except ValueError:
                    raise ConfigError("rate", f"not a number: {value!r}") from None
            elif key == "level":
                fields[key] = value
            elif key == "kinds":
                fields[key] = tuple(value.split("+"))
            else:
                raise ConfigError("faults", f"unknown field {key!r} in "
                                            f"clause {clause!r}")
        rules.append(FaultRule(kind=kind, **fields))  # type: ignore[arg-type]
    return FaultPlan(rules=tuple(rules), seed=seed, name=name or spec)


def _parse_int(field_name: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(field_name, f"not an integer: {value!r}") from None


class FaultInjector:
    """Applies a :class:`FaultPlan` to a running system, epoch by epoch.

    The injector works by duck typing against the system under test: a
    :class:`~repro.cpu.cmp.CmpSystem` exposes ``hierarchy`` (slice disabling,
    bus penalties) and possibly ``controller`` (ACFVs, topology); systems
    without one of those simply don't experience the corresponding faults.
    All mutable injector state (active disables, stall expiry) is a pure
    function of the epochs seen so far, so a resume replay reconstructs it
    exactly.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.log: List[FaultEvent] = []
        self._disabled_until: Dict[Tuple[str, int], int] = {}
        self._stall_until = -1
        self._stall_penalty = 0

    # -- per-epoch application ---------------------------------------------

    def begin_epoch(self, epoch: int, system) -> None:
        """Apply expiries and this epoch's new faults before any access."""
        hierarchy = getattr(system, "hierarchy", None)
        controller = getattr(system, "controller", None)
        rng = np.random.default_rng((self.plan.seed, 0x5EED, epoch))

        expired = [key for key, until in self._disabled_until.items()
                   if until <= epoch]
        for key in expired:
            del self._disabled_until[key]

        for event in self.plan.events_at(epoch):
            self.log.append(event)
            if event.kind == "flip-acfv":
                self._flip_acfv(event, controller, rng)
            elif event.kind == "disable-slice":
                self._disable_slice(event, hierarchy, rng)
            elif event.kind in ("bus-stall", "drop-grant"):
                self._stall_until = max(self._stall_until,
                                        epoch + event.duration)
                self._stall_penalty = event.penalty
            elif event.kind == "corrupt-topology":
                self._corrupt_topology(event, controller, rng)

        if hierarchy is not None:
            for level in ("l2", "l3"):
                disabled = {s for (lvl, s) in self._disabled_until if lvl == level}
                hierarchy.set_faulted_slices(level, disabled)
            hierarchy.bus_penalty = (self._stall_penalty
                                     if epoch < self._stall_until else 0)

    # -- individual fault mechanics ----------------------------------------

    def _flip_acfv(self, event: FaultEvent, controller, rng) -> None:
        if controller is None:
            return
        bank = controller.bank
        core = event.target if 0 <= event.target < bank.n_cores else (
            int(rng.integers(0, bank.n_cores)))
        vector = bank.acfv(event.level, core)
        for _ in range(event.bits):
            vector.flip(int(rng.integers(0, vector.bits)))

    def _disable_slice(self, event: FaultEvent, hierarchy, rng) -> None:
        if hierarchy is None:
            return
        n = hierarchy.config.cores
        already = {s for (lvl, s) in self._disabled_until if lvl == event.level}
        if event.target >= 0:
            target = event.target
            if target >= n:
                raise FaultInjectedError(
                    f"disable-slice target {target} out of range for "
                    f"{n}-slice {event.level}")
            if len(already | {target}) >= n:
                raise FaultInjectedError(
                    f"fault plan would disable every {event.level} slice; "
                    "the machine cannot make progress")
        else:
            candidates = [s for s in range(n) if s not in already]
            if len(candidates) <= 1:
                return  # never take the last slice of a level offline
            target = int(candidates[int(rng.integers(0, len(candidates)))])
        self._disabled_until[(event.level, target)] = event.epoch + event.duration

    def _corrupt_topology(self, event: FaultEvent, controller, rng) -> None:
        if controller is None:
            return
        topology = controller.topology
        groups = topology._groups[event.level]  # deliberate: faults model
        # state corruption, which by nature bypasses the public API.
        if not groups:
            return
        index = int(rng.integers(0, len(groups)))
        group = groups[index]
        if rng.random() < 0.5 or len(group) == 1:
            # Duplicate a slice already owned by another group.
            alien = int(rng.integers(0, topology.n_slices))
            groups[index] = tuple(sorted(set(group) | {alien}))
        else:
            # Orphan a slice: drop it from its group entirely.
            victim = group[int(rng.integers(0, len(group)))]
            groups[index] = tuple(s for s in group if s != victim)

    # -- reporting ---------------------------------------------------------

    @property
    def injected(self) -> int:
        """Total fault events applied so far."""
        return len(self.log)
