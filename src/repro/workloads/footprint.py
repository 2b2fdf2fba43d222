"""Per-benchmark footprint targets: one :class:`FootprintModel` per row of
the paper's Table 4.

The SPEC/PARSEC tables and the Table 5 mixes are built from these, and
:class:`~repro.workloads.synthetic.SyntheticThread` turns one into an
address stream.  This module is kept free of numpy, so naming or
validating a workload never loads the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class FootprintModel:
    """Target footprint statistics of one benchmark (one row of Table 4).

    The ACF values are fractions of one cache slice's capacity, exactly as
    the paper reports them (1.0 = 100 % of a 256 KB L2 / 1 MB L3 slice).
    """

    name: str
    l2_acf: float
    l2_sigma_t: float
    l3_acf: float
    l3_sigma_t: float
    shared_fraction: float = 0.0
    """Fraction of references that target the thread-shared region."""

    spatial_sigma: float = 0.0
    """Across-thread standard deviation of the footprint (PARSEC only)."""

    write_ratio: float = 0.3
    mean_gap: float = 2.0
    """Mean non-memory instructions between references."""

    cold_fraction: float = 0.04
    """Fraction of references that are streaming (never reused)."""

    drift: float = 0.15
    """Per-epoch drift of the hot region base, as a fraction of its size."""

    def __post_init__(self) -> None:
        for attr in ("l2_acf", "l3_acf"):
            value = getattr(self, attr)
            if not 0 < value <= 1.5:
                raise ValueError(f"{self.name}: {attr}={value} out of range (0, 1.5]")
        for attr in ("l2_sigma_t", "l3_sigma_t", "spatial_sigma"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{self.name}: {attr} must be non-negative")
        if not 0 <= self.shared_fraction < 1:
            raise ValueError(f"{self.name}: shared_fraction must be in [0, 1)")
        if not 0 <= self.write_ratio <= 1:
            raise ValueError(f"{self.name}: write_ratio must be in [0, 1]")
        if not 0 <= self.cold_fraction < 0.5:
            raise ValueError(f"{self.name}: cold_fraction must be in [0, 0.5)")
        if self.mean_gap < 0:
            raise ValueError(f"{self.name}: mean_gap must be non-negative")

    def with_sharing(self, shared_fraction: float, spatial_sigma: float) -> "FootprintModel":
        """Return a multithreaded variant of this model."""
        return replace(self, shared_fraction=shared_fraction, spatial_sigma=spatial_sigma)
