"""Set-associative cache timing model (LRU replacement).

Timing simulators in every organization use these for instruction and
data access latencies.  Only timing is modeled — data always comes from
the functional simulator's memory, exactly the decoupling the paper's
taxonomy assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of cache; ``next_level`` may be another Cache or None.

    Latency returned by :meth:`access` is the total cycles including any
    lower-level penalty.
    """

    def __init__(
        self,
        name: str,
        size: int = 16 * 1024,
        line: int = 32,
        assoc: int = 2,
        hit_latency: int = 1,
        miss_penalty: int = 20,
        next_level: "Cache | None" = None,
    ) -> None:
        if size % (line * assoc):
            raise ValueError("size must be a multiple of line * assoc")
        self.name = name
        self.line = line
        self.assoc = assoc
        self.sets = size // (line * assoc)
        self.hit_latency = hit_latency
        self.miss_penalty = miss_penalty
        self.next_level = next_level
        self.stats = CacheStats()
        # each set: list of tags, most-recently-used last
        self._ways: list[list[int]] = [[] for _ in range(self.sets)]

    def access(self, addr: int, write: bool = False) -> int:
        """Access ``addr``; returns latency in cycles and updates state."""
        line_addr = addr // self.line
        index = line_addr % self.sets
        tag = line_addr // self.sets
        ways = self._ways[index]
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.stats.hits += 1
            return self.hit_latency
        self.stats.misses += 1
        latency = self.hit_latency + (
            self.next_level.access(addr, write)
            if self.next_level is not None
            else self.miss_penalty
        )
        ways.append(tag)
        if len(ways) > self.assoc:
            ways.pop(0)
        return latency

    def flush(self) -> None:
        self._ways = [[] for _ in range(self.sets)]
