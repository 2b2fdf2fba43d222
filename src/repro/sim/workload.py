"""Workload binding: which benchmark model runs on which core.

Three shapes, matching the paper's Section 4:

- *multiprogrammed*: 16 single-threaded SPEC benchmarks, one per core, each
  in its own address space (the Table 5 mixes);
- *multithreaded*: one PARSEC benchmark as 16 threads sharing an address
  space, with across-thread footprint variance;
- *alone*: a single benchmark on core 0 with the rest of the machine idle
  (the normalisation runs for weighted/fair speedup).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.config import MachineConfig
from repro.resilience.errors import ConfigError
from repro.workloads.mixes import Mix, mix_by_name
from repro.workloads.parsec import PARSEC_BENCHMARKS, ParsecBenchmark, parsec_benchmark
from repro.workloads.spec import spec_benchmark

if TYPE_CHECKING:
    from repro.workloads.footprint import FootprintModel
    from repro.workloads.synthetic import SyntheticThread


@dataclass(frozen=True)
class Workload:
    """A named binding of footprint models to cores."""

    name: str
    models: tuple
    """One :class:`FootprintModel` per core; ``None`` marks an idle core."""

    shared_address_space: bool = False

    def __post_init__(self) -> None:
        if not any(model is not None for model in self.models):
            raise ValueError("workload must have at least one active core")

    @property
    def active_cores(self) -> List[int]:
        return [core for core, model in enumerate(self.models) if model is not None]

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def from_mix(mix: Mix) -> "Workload":
        """A Table 5 multiprogrammed mix (16 independent address spaces)."""
        return Workload(
            name=mix.name,
            models=tuple(bench.model for bench in mix.benchmarks),
            shared_address_space=False,
        )

    @staticmethod
    def from_parsec(benchmark, n_threads: int = 16) -> "Workload":
        """A PARSEC benchmark as ``n_threads`` threads sharing memory."""
        if isinstance(benchmark, str):
            benchmark = parsec_benchmark(benchmark)
        if not isinstance(benchmark, ParsecBenchmark):
            raise TypeError(f"expected a ParsecBenchmark, got {benchmark!r}")
        return Workload(
            name=benchmark.name,
            models=tuple([benchmark.model] * n_threads),
            shared_address_space=True,
        )

    @staticmethod
    def from_name(name: str, cores: int = 16) -> "Workload":
        """Parse a workload name the way the CLI and the service accept it.

        ``"MIX 01"`` (case/spacing-insensitive) → a Table 5 mix, a PARSEC
        benchmark name → the multithreaded binding, ``"alone:<spec>"`` →
        one SPEC benchmark on core 0.  Raises
        :class:`~repro.resilience.errors.ConfigError` (field ``workload``)
        for anything else, so both front ends reject bad submissions with
        the same typed error.
        """
        if name.lower().startswith("mix"):
            normalized = (name.upper().replace("MIX", "MIX ")
                          .replace("MIX  ", "MIX ").strip())
            try:
                return Workload.from_mix(mix_by_name(normalized))
            except ValueError as exc:
                raise ConfigError("workload", str(exc)) from None
        if name.startswith("alone:"):
            try:
                return Workload.alone(name.split(":", 1)[1], cores=cores)
            except (KeyError, ValueError) as exc:
                raise ConfigError("workload", str(exc)) from None
        if name in PARSEC_BENCHMARKS:
            return Workload.from_parsec(name)
        raise ConfigError(
            "workload",
            f"unknown workload {name!r}: use 'MIX 01'..'MIX 12', a PARSEC "
            f"name ({', '.join(sorted(PARSEC_BENCHMARKS))}) or "
            "'alone:<spec>'")

    @staticmethod
    def alone(benchmark_name: str, cores: int = 16) -> "Workload":
        """One SPEC benchmark on core 0, all other cores idle."""
        model = spec_benchmark(benchmark_name).model
        models: List[Optional[FootprintModel]] = [None] * cores
        models[0] = model
        return Workload(
            name=f"{model.name} (alone)",
            models=tuple(models),
            shared_address_space=False,
        )

    # -- thread construction ------------------------------------------------------

    def build_threads(self, config: MachineConfig, seed: int = 0) -> List[Optional[SyntheticThread]]:
        """Instantiate per-core generators (None for idle cores)."""
        from repro.workloads import synthetic

        if len(self.models) > config.cores:
            raise ValueError(
                f"workload has {len(self.models)} threads, machine only "
                f"{config.cores} cores"
            )
        if self.shared_address_space:
            # All threads share one model; realise the spatial variance.
            model = self.models[0]
            return list(synthetic.make_threads(
                model, len(self.models), config.l2_slice, config.l3_slice, seed=seed
            ))
        threads: List[Optional[SyntheticThread]] = []
        for core, model in enumerate(self.models):
            if model is None:
                threads.append(None)
            else:
                threads.append(synthetic.SyntheticThread(
                    model, core, config.l2_slice, config.l3_slice, seed=seed
                ))
        return threads
