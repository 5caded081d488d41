"""A bounded LRU cache for scheduling results.

The client facade keys this cache by the canonical job fingerprint (see
:attr:`repro.api.jobs.Job.fingerprint`): identical jobs — same problem
content, variants and scheduler configuration — hit the same entry no
matter where or when they were built, and no matter which submission path
(batch or single-variant :meth:`~repro.api.client.Client.solve`) produced
it.  The cache is bounded; inserting into a full cache evicts the least
recently used entry.  Hit/miss/eviction counters are kept for the client's
statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, Iterator, Optional, TypeVar

__all__ = ["ResultCache"]

_V = TypeVar("_V")


class ResultCache(Generic[_V]):
    """A bounded least-recently-used key → value cache.

    Parameters
    ----------
    max_size:
        Maximum number of entries (positive).  Both successful lookups and
        insertions refresh an entry's recency.
    """

    def __init__(self, max_size: int = 128) -> None:
        max_size = int(max_size)
        if max_size <= 0:
            raise ValueError(f"max_size must be positive, got {max_size}")
        self._max_size = max_size
        self._entries: "OrderedDict[str, _V]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------ #
    @property
    def max_size(self) -> int:
        """The capacity bound."""
        return self._max_size

    @property
    def hits(self) -> int:
        """Number of successful lookups."""
        return self._hits

    @property
    def misses(self) -> int:
        """Number of failed lookups."""
        return self._misses

    @property
    def evictions(self) -> int:
        """Number of entries evicted to respect the bound."""
        return self._evictions

    def stats(self) -> Dict[str, int]:
        """Return the counters and current size as a dictionary."""
        return {
            "size": len(self._entries),
            "max_size": self._max_size,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
        }

    # ------------------------------------------------------------------ #
    def get(self, key: str) -> Optional[_V]:
        """Return the cached value for *key* (refreshing its recency), or ``None``."""
        try:
            value = self._entries[key]
        except KeyError:
            self._misses += 1
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return value

    def put(self, key: str, value: _V) -> None:
        """Insert (or refresh) an entry, evicting the LRU entry when full."""
        if key in self._entries:
            self._entries[key] = value
            self._entries.move_to_end(key)
            return
        if len(self._entries) >= self._max_size:
            self._entries.popitem(last=False)
            self._evictions += 1
        self._entries[key] = value

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        self._entries.clear()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache(size={len(self._entries)}/{self._max_size}, "
            f"hits={self._hits}, misses={self._misses}, evictions={self._evictions})"
        )
