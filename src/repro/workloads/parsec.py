"""PARSEC benchmark models (right half of the paper's Table 4).

Each PARSEC benchmark runs as 16 threads sharing one address space.  Table 4
reports, per benchmark, the mean per-thread ACF in L2 and L3 slices, the
temporal standard deviation (sigma_t, averaged over threads) and the spatial
standard deviation (sigma_s, across threads in the same epoch).  The paper's
observations this package must reproduce:

- facesim and ferret have high sigma_s in L2; freqmine and x264 have high
  sigma_s in L3 — these four derive the largest MorphCache benefit (Fig 16);
- dedup prefers the (4:4:1) topology while freqmine prefers (1:16:1)
  (Fig 2(b)).

The data-sharing fraction per benchmark is not reported in the paper; it is
a calibration parameter here, chosen from the benchmarks' published
characterisation (pipeline benchmarks such as dedup/ferret share heavily,
data-parallel ones such as blackscholes/swaptions barely share) and listed in
EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.workloads.footprint import FootprintModel


@dataclass(frozen=True)
class ParsecBenchmark:
    """One PARSEC benchmark: Table 4 row, kept with both spatial sigmas."""

    model: FootprintModel
    l2_sigma_s: float
    l3_sigma_s: float

    @property
    def name(self) -> str:
        return self.model.name

    def __post_init__(self) -> None:
        if self.l2_sigma_s < 0 or self.l3_sigma_s < 0:
            raise ValueError(f"{self.name}: spatial sigmas must be non-negative")


#: Streaming intensity (cold-reference fraction) per benchmark; same
#: calibration role as in :mod:`repro.workloads.spec`.
_COLD_FRACTION = {
    "blackscholes": 0.05, "bodytrack": 0.06, "canneal": 0.15, "dedup": 0.12,
    "facesim": 0.12, "ferret": 0.10, "fluidanimate": 0.10, "freqmine": 0.08,
    "streamcluster": 0.25, "swaptions": 0.03, "vips": 0.10, "x264": 0.10,
}


def _parsec(
    name: str,
    l2: float,
    s2t: float,
    s2s: float,
    l3: float,
    s3t: float,
    s3s: float,
    shared: float,
) -> ParsecBenchmark:
    model = FootprintModel(
        name=name,
        l2_acf=l2,
        l2_sigma_t=s2t,
        l3_acf=l3,
        l3_sigma_t=s3t,
        shared_fraction=shared,
        spatial_sigma=(s2s + s3s) / 2.0,
        cold_fraction=_COLD_FRACTION[name],
    )
    return ParsecBenchmark(model=model, l2_sigma_s=s2s, l3_sigma_s=s3s)


#: All 12 PARSEC benchmarks of Table 4, keyed by name.
#: Column order mirrors the table: L2 (ACF, sigma_t, sigma_s) then L3.
PARSEC_BENCHMARKS: Dict[str, ParsecBenchmark] = {
    bench.name: bench
    for bench in [
        _parsec("blackscholes", 0.23, 0.04, 0.07, 0.18, 0.02, 0.05, shared=0.05),
        _parsec("bodytrack", 0.38, 0.07, 0.03, 0.22, 0.04, 0.02, shared=0.10),
        _parsec("canneal", 0.65, 0.13, 0.18, 0.58, 0.07, 0.14, shared=0.25),
        _parsec("dedup", 0.47, 0.05, 0.08, 0.74, 0.16, 0.12, shared=0.30),
        _parsec("facesim", 0.41, 0.11, 0.14, 0.64, 0.17, 0.08, shared=0.20),
        _parsec("ferret", 0.59, 0.14, 0.18, 0.58, 0.06, 0.08, shared=0.25),
        _parsec("fluidanimate", 0.47, 0.04, 0.11, 0.41, 0.03, 0.19, shared=0.15),
        _parsec("freqmine", 0.61, 0.13, 0.13, 0.71, 0.14, 0.20, shared=0.25),
        _parsec("streamcluster", 0.79, 0.28, 0.12, 0.61, 0.16, 0.07, shared=0.20),
        _parsec("swaptions", 0.43, 0.05, 0.11, 0.37, 0.04, 0.02, shared=0.05),
        _parsec("vips", 0.62, 0.09, 0.15, 0.57, 0.06, 0.12, shared=0.15),
        _parsec("x264", 0.55, 0.07, 0.10, 0.52, 0.13, 0.18, shared=0.20),
    ]
}


def parsec_benchmark(name: str) -> ParsecBenchmark:
    """Look up a PARSEC benchmark by name."""
    try:
        return PARSEC_BENCHMARKS[name]
    except KeyError:
        raise ValueError(f"unknown PARSEC benchmark {name!r}") from None
