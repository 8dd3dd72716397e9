"""Registered memory regions: the communication task's classifier.

§3.1 of the paper: "each rank has to register start address and length
of the communication buffer to the communication task. As a result, the
task can classify incoming requests and handle them in a different way"
— *synchronization* (flag) accesses bypass all transparent buffers and
can be write-acknowledged immediately; *communication* (buffer) accesses
are eligible for caching, prefetching and write combining. Unregistered
addresses fall back to transparent routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from repro.scc.mpb import MpbAddr

__all__ = ["RegionKind", "Region", "RegionRegistry", "rank_regions"]


class RegionKind(Enum):
    """Classification the communication task assigns to an access."""

    FLAG = "flag"
    BUFFER = "buffer"
    UNREGISTERED = "unregistered"


@dataclass(frozen=True)
class Region:
    """A registered span inside one core's LMB half."""

    device: int
    core: int
    start: int
    length: int
    kind: RegionKind

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ValueError(f"region length must be positive, got {self.length}")
        if self.start < 0:
            raise ValueError(f"region start must be non-negative, got {self.start}")

    @property
    def end(self) -> int:
        return self.start + self.length

    def contains(self, addr: MpbAddr, length: int = 1) -> bool:
        return (
            addr.device == self.device
            and addr.core == self.core
            and self.start <= addr.offset
            and addr.offset + length <= self.end
        )


@lru_cache(maxsize=1024)
def rank_regions(
    device: int, core: int, payload_bytes: int, sf_bytes: int
) -> tuple[Region, Region]:
    """A rank's fixed (buffer, flag) pair: MPB payload, then SF region.

    The two spans are adjacent, hence disjoint. Regions are frozen, so
    every host of every system shares one cached pair per core. The cache
    holds 1024 pairs, over four full chassis of ``MAX_DEVICES`` devices;
    :class:`~repro.vscc.system.VSCCSystem` asks for a core's pair from
    every host in turn, so even a larger build computes each pair once.
    """
    return (
        Region(device, core, 0, payload_bytes, RegionKind.BUFFER),
        Region(device, core, payload_bytes, sf_bytes, RegionKind.FLAG),
    )


class RegionRegistry:
    """All regions registered with the communication task."""

    def __init__(self) -> None:
        self._by_core: dict[tuple[int, int], list[Region]] = {}

    def register(self, region: Region) -> None:
        key = (region.device, region.core)
        regions = self._by_core.get(key)
        if regions is None:  # a core's first region: nothing to overlap
            self._by_core[key] = [region]
            return
        for existing in regions:
            if existing.start < region.end and region.start < existing.end:
                raise ValueError(f"region {region} overlaps {existing}")
        regions.append(region)

    def classify(self, addr: MpbAddr, length: int = 1) -> RegionKind:
        """Classify an access; spans must fall wholly inside one region."""
        for region in self._by_core.get((addr.device, addr.core), []):
            if region.contains(addr, length):
                return region.kind
        return RegionKind.UNREGISTERED

    def regions_of(self, device: int, core: int) -> list[Region]:
        return list(self._by_core.get((device, core), []))

    def clear(self) -> None:
        self._by_core.clear()
