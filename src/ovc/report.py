"""Report containers shared by the cohomology engines."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class DegreeData:
    dim: int                 # certified dimension
    generators: tuple        # engine-specific representatives
    raw_dim: int             # before window-artifact exclusion
    edge_excluded: int = 0   # classes whose every representative hugs the edge


@dataclass(frozen=True)
class CohomologyReport:
    degrees: dict            # degree -> DegreeData
    precision_gap: int       # distance of the largest divisor to the ceiling
    truncation: Fraction | None = None

    def dims(self) -> dict:
        return {d: dd.dim for d, dd in sorted(self.degrees.items())}

    def generators(self, degree: int):
        dd = self.degrees.get(degree)
        return dd.generators if dd else ()
