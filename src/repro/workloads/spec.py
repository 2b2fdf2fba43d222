"""SPEC CPU 2006 benchmark models (left half of the paper's Table 4).

Each benchmark is represented by a :class:`FootprintModel` calibrated to the
paper's measured per-benchmark L2/L3 active cache footprints and temporal
standard deviations, collected on a single core with a private 256 KB L2
slice and a private 1 MB L3 slice.  The class in parentheses in Table 4
(0-3) encodes whether the L2 and L3 footprints are low or high; the paper's
mixes (Table 5) are constructed from those classes.

Class semantics (inferred from the data and the paper's description):

====== ============ ============
class  L2 footprint L3 footprint
====== ============ ============
0      low          low
1      low          high
2      high         low
3      high         high
====== ============ ============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.workloads.footprint import FootprintModel


@dataclass(frozen=True)
class SpecBenchmark:
    """One SPEC CPU 2006 benchmark: Table 4 row plus its class label."""

    model: FootprintModel
    spec_class: int

    @property
    def name(self) -> str:
        return self.model.name

    def __post_init__(self) -> None:
        if self.spec_class not in (0, 1, 2, 3):
            raise ValueError(f"class must be 0-3, got {self.spec_class}")


#: Streaming intensity per benchmark: the fraction of references that are
#: never-reused (cold) lines.  The paper does not tabulate this, but it is
#: what makes shared LRU caches lose to private/partitioned ones (the
#: motivation behind PIPP/TADIP, which the paper cites); the values below
#: follow the benchmarks' published memory behaviour — libquantum, lbm,
#: GemsFDTD and bwaves are heavy streamers, the integer benchmarks barely
#: stream.  See EXPERIMENTS.md for the calibration note.
_COLD_FRACTION = {
    "GemsFDTD": 0.32, "astar": 0.08, "bwaves": 0.28, "bzip2": 0.10,
    "cactusADM": 0.10, "calculix": 0.05, "dealII": 0.08, "gamess": 0.03,
    "gcc": 0.10, "gobmk": 0.05, "gromacs": 0.08, "h264ref": 0.05,
    "hmmer": 0.05, "lbm": 0.40, "leslie3d": 0.20, "libquantum": 0.45,
    "mcf": 0.25, "milc": 0.22, "namd": 0.05, "omnetpp": 0.10,
    "perlbench": 0.05, "povray": 0.03, "sjeng": 0.04, "soplex": 0.15,
    "sphinx": 0.12, "tonto": 0.06, "wrf": 0.12, "xalancbmk": 0.10,
    "zeusmp": 0.15,
}


def _spec(name: str, cls: int, l2: float, s2: float, l3: float, s3: float) -> SpecBenchmark:
    return SpecBenchmark(
        model=FootprintModel(
            name=name, l2_acf=l2, l2_sigma_t=s2, l3_acf=l3, l3_sigma_t=s3,
            cold_fraction=_COLD_FRACTION[name],
        ),
        spec_class=cls,
    )


#: All 29 SPEC CPU 2006 benchmarks of Table 4, keyed by name.  The short
#: aliases used in Table 5 (``Gems``, ``perl``, ``libq``, ``libm``, ...) are
#: resolved by :func:`spec_benchmark`.
SPEC_BENCHMARKS: Dict[str, SpecBenchmark] = {
    bench.name: bench
    for bench in [
        _spec("GemsFDTD", 0, 0.34, 0.14, 0.46, 0.25),
        _spec("astar", 1, 0.42, 0.06, 0.56, 0.02),
        _spec("bwaves", 2, 0.56, 0.05, 0.43, 0.17),
        _spec("bzip2", 2, 0.59, 0.18, 0.46, 0.22),
        _spec("cactusADM", 2, 0.74, 0.16, 0.48, 0.04),
        _spec("calculix", 3, 0.62, 0.02, 0.56, 0.02),
        _spec("dealII", 3, 0.58, 0.07, 0.71, 0.19),
        _spec("gamess", 0, 0.41, 0.09, 0.38, 0.11),
        _spec("gcc", 3, 0.59, 0.18, 0.66, 0.13),
        _spec("gobmk", 2, 0.73, 0.13, 0.45, 0.01),
        _spec("gromacs", 1, 0.39, 0.14, 0.77, 0.20),
        _spec("h264ref", 3, 0.65, 0.02, 0.55, 0.04),
        _spec("hmmer", 1, 0.31, 0.19, 0.69, 0.11),
        _spec("lbm", 0, 0.44, 0.19, 0.42, 0.08),
        _spec("leslie3d", 2, 0.56, 0.04, 0.34, 0.12),
        _spec("libquantum", 0, 0.26, 0.14, 0.18, 0.11),
        _spec("mcf", 1, 0.38, 0.16, 0.51, 0.04),
        _spec("milc", 1, 0.42, 0.02, 0.59, 0.05),
        _spec("namd", 2, 0.55, 0.04, 0.48, 0.12),
        _spec("omnetpp", 1, 0.47, 0.03, 0.58, 0.08),
        _spec("perlbench", 0, 0.31, 0.08, 0.42, 0.01),
        _spec("povray", 2, 0.58, 0.11, 0.41, 0.07),
        _spec("sjeng", 2, 0.56, 0.02, 0.41, 0.06),
        _spec("soplex", 2, 0.53, 0.07, 0.47, 0.07),
        _spec("sphinx", 1, 0.49, 0.04, 0.63, 0.11),
        _spec("tonto", 3, 0.63, 0.12, 0.57, 0.06),
        _spec("wrf", 1, 0.46, 0.07, 0.73, 0.14),
        _spec("xalancbmk", 3, 0.58, 0.03, 0.57, 0.03),
        _spec("zeusmp", 2, 0.54, 0.05, 0.44, 0.17),
    ]
}

#: Short names as they appear in Table 5's mix definitions.
_ALIASES: Dict[str, str] = {
    "Gems": "GemsFDTD",
    "gems": "GemsFDTD",
    "cactus": "cactusADM",
    "leslie": "leslie3d",
    "h264": "h264ref",
    "libq": "libquantum",
    "libm": "lbm",
    "perl": "perlbench",
    "xalanc": "xalancbmk",
    "gomacs": "gromacs",  # Table 5 typo in the paper
    "sphinx3": "sphinx",
}


def spec_benchmark(name: str) -> SpecBenchmark:
    """Look up a SPEC benchmark by its full name or Table 5 alias."""
    canonical = _ALIASES.get(name, name)
    try:
        return SPEC_BENCHMARKS[canonical]
    except KeyError:
        raise ValueError(f"unknown SPEC benchmark {name!r}") from None


def class_counts(names: Tuple[str, ...]) -> Tuple[int, int, int, int]:
    """Count how many of the given benchmarks fall in each class (Table 5 type)."""
    counts = [0, 0, 0, 0]
    for name in names:
        counts[spec_benchmark(name).spec_class] += 1
    return tuple(counts)
