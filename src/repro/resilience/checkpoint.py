"""Checkpoint/resume for long simulation sweeps.

A checkpoint records, every N epochs:

- the **completed epoch results** (IPC, misses, topology label per epoch);
- the **RNG state** of every workload thread (numpy bit-generator state);
- a **digest of the cache/ACFV state** (every resident line, the topology,
  the ACFV vectors) — a few hundred bytes instead of megabytes of entries;
- a **fingerprint** of the run (workload, scheme, seed, machine geometry)
  so a checkpoint can never silently resume a *different* experiment.

Resume is replay-based: the engine re-simulates the already-completed
epochs (trace generation and cache accesses are deterministic given the
seed), then verifies that the rebuilt RNG states and state digest match the
checkpoint exactly before continuing.  This makes a resumed run
*bit-identical* to an uninterrupted one by construction — the checkpoint is
the proof obligation, not the state transfer — and keeps checkpoint files
small, human-readable JSON.

Checkpoint writes are atomic (write to ``<path>.tmp``, then ``os.replace``)
so a run killed mid-write leaves the previous checkpoint intact.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from typing import Any, Dict, List, Optional

from repro.resilience.errors import CheckpointError

FORMAT_VERSION = 1


# -- digests ---------------------------------------------------------------

def state_digest(system) -> str:
    """SHA-256 over the system's full architectural state.

    Covers the cache hierarchy (every entry's line/owner/dirty/stamp, the
    tree bits of non-LRU replacement policies, the installed topology,
    disabled slices, the LRU stamp counter) and the
    MorphCache controller (ACFV vectors, epoch, guard mode) when present.
    Systems without a hierarchy (PIPP/DSR baselines) digest their cumulative
    miss counters, which the access stream fully determines.
    """
    hasher = hashlib.sha256()

    def feed(*parts: Any) -> None:
        hasher.update(repr(parts).encode())

    hierarchy = getattr(system, "hierarchy", None)
    if hierarchy is not None:
        feed("stamp", hierarchy._stamp)
        feed("l2_groups", hierarchy.l2_groups, "l3_groups", hierarchy.l3_groups)
        feed("disabled", sorted(hierarchy.disabled_slices("l2")),
             sorted(hierarchy.disabled_slices("l3")))
        for name, slices in (("l1", hierarchy.l1s), ("l2", hierarchy.l2s),
                             ("l3", hierarchy.l3s)):
            for slice_id, cache in enumerate(slices):
                for entry in cache.entries():
                    feed(name, slice_id, entry.line, entry.owner,
                         entry.dirty, entry.stamp)
                # True LRU is fully fixed by the stamps above; only other
                # policies carry state of their own (so LRU digests, and
                # every golden pinning them, are unchanged).
                if cache.policy.name != "lru":
                    feed(name, slice_id, cache.policy.name,
                         cache.policy._bits)
    controller = getattr(system, "controller", None)
    if controller is not None:
        feed("epoch", controller._epoch, "mode", controller.guard.mode)
        for level in ("l2", "l3"):
            for core in range(controller.config.cores):
                feed(level, core, controller.bank.acfv(level, core).as_int())
    if hierarchy is None and controller is None:
        feed("misses", sorted(system.miss_counts().items()))
    return hasher.hexdigest()


def rng_states(threads) -> List[Optional[Dict[str, Any]]]:
    """JSON-able bit-generator states of the per-core thread generators."""
    states: List[Optional[Dict[str, Any]]] = []
    for thread in threads:
        if thread is None:
            states.append(None)
        else:
            states.append(_plain(thread._rng.bit_generator.state))
    return states


def _plain(value: Any) -> Any:
    """Convert numpy scalars inside a state dict to plain Python types."""
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def run_fingerprint(workload, config, scheme_name: str, seed: int,
                    n_epochs: int, n_accesses: int, warmup: int) -> Dict[str, Any]:
    """Identity of an experiment; two runs may share a checkpoint iff equal."""
    return {
        "workload": workload.name,
        "scheme": scheme_name,
        "seed": seed,
        "epochs": n_epochs,
        "accesses_per_core": n_accesses,
        "warmup_epochs": warmup,
        "machine": repr(config),
    }


# -- serialisation ---------------------------------------------------------

def epoch_to_json(epoch_result) -> Dict[str, Any]:
    return {
        "epoch": epoch_result.epoch,
        "ipcs": {str(core): ipc for core, ipc in epoch_result.ipcs.items()},
        "misses": {str(core): m for core, m in epoch_result.misses.items()},
        "topology_label": epoch_result.topology_label,
    }


def epoch_from_json(payload: Dict[str, Any]):
    from repro.sim.engine import EpochResult  # local: avoid import cycle
    return EpochResult(
        epoch=int(payload["epoch"]),
        ipcs={int(core): float(ipc) for core, ipc in payload["ipcs"].items()},
        misses={int(core): int(m) for core, m in payload["misses"].items()},
        topology_label=payload["topology_label"],
    )


def save_checkpoint(
    path,
    fingerprint: Dict[str, Any],
    next_epoch: int,
    epochs: List[Any],
    threads,
    system,
) -> None:
    """Atomically write a checkpoint after ``next_epoch`` simulated epochs."""
    payload = {
        "version": FORMAT_VERSION,
        "fingerprint": fingerprint,
        "next_epoch": next_epoch,
        "epochs": [epoch_to_json(e) for e in epochs],
        "rng_states": rng_states(threads),
        "state_digest": state_digest(system),
    }
    path = pathlib.Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def load_checkpoint(path, fingerprint: Dict[str, Any]) -> Dict[str, Any]:
    """Load and sanity-check a checkpoint for the given experiment.

    Raises:
        CheckpointError: missing file, unparseable JSON, format-version
            mismatch, or a fingerprint belonging to a different run.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise CheckpointError(f"no checkpoint at {path}")
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    for key in ("version", "fingerprint", "next_epoch", "epochs",
                "rng_states", "state_digest"):
        if key not in payload:
            raise CheckpointError(f"checkpoint {path} is missing {key!r}")
    if payload["version"] != FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {payload['version']}, "
            f"this build reads {FORMAT_VERSION}")
    if payload["fingerprint"] != fingerprint:
        mismatched = [k for k in fingerprint
                      if payload["fingerprint"].get(k) != fingerprint[k]]
        raise CheckpointError(
            f"checkpoint {path} belongs to a different run "
            f"(mismatched: {', '.join(mismatched) or 'unknown fields'})")
    return payload


def verify_replay(payload: Dict[str, Any], threads, system, path) -> None:
    """After fast-forward replay, prove the rebuilt state matches.

    Raises:
        CheckpointError: replayed RNG states or the architectural-state
            digest differ from the checkpoint — the run being resumed is not
            the run that was checkpointed.
    """
    replayed = rng_states(threads)
    if replayed != payload["rng_states"]:
        raise CheckpointError(
            f"checkpoint {path}: replayed RNG state diverged — the workload "
            "or seed does not match the checkpointed run")
    digest = state_digest(system)
    if digest != payload["state_digest"]:
        raise CheckpointError(
            f"checkpoint {path}: replayed cache/ACFV state digest "
            f"{digest[:12]}… != checkpointed "
            f"{payload['state_digest'][:12]}…")
