"""Set-associative LLC simulator with CAT-style way masking.

This is the reproduction's ground-truth cache model: a classic
(sets × ways) LRU cache whose *insertion* ways can be restricted per class
of service (CLOS), exactly like Intel CAT. The analytic miss-ratio curves
in :mod:`repro.workloads.mrc` are validated against trace-driven
measurements on this simulator (see :mod:`repro.cachesim.mrc`).

CAT semantics implemented faithfully:

* a CLOS's mask restricts which ways its fills may *occupy*;
* lookups hit in **any** way (a line left behind after a mask change stays
  usable until evicted — the paper notes LLC contents survive allocation
  changes, Section 3.3);
* victims are chosen LRU **within the requester's mask**, so one CLOS can
  never evict lines cached in ways outside its mask.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import check_positive_int

__all__ = ["CacheGeometry", "CacheStats", "SetAssociativeCache"]


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of a simulated cache."""

    n_sets: int
    n_ways: int
    line_bytes: int = 64

    def __post_init__(self) -> None:
        check_positive_int("n_sets", self.n_sets)
        check_positive_int("n_ways", self.n_ways)
        check_positive_int("line_bytes", self.line_bytes)
        if self.n_sets & (self.n_sets - 1):
            raise ValueError(f"n_sets must be a power of two, got {self.n_sets}")
        if self.line_bytes & (self.line_bytes - 1):
            raise ValueError(
                f"line_bytes must be a power of two, got {self.line_bytes}"
            )

    @property
    def capacity_bytes(self) -> int:
        """Total cache capacity in bytes."""
        return self.n_sets * self.n_ways * self.line_bytes

    @classmethod
    def like_table1(cls, n_sets: int = 1024) -> "CacheGeometry":
        """A scaled-down 20-way cache mirroring the paper's LLC shape."""
        return cls(n_sets=n_sets, n_ways=20)


@dataclass
class CacheStats:
    """Per-CLOS access statistics."""

    accesses: int = 0
    misses: int = 0
    evictions_caused: int = 0

    @property
    def hits(self) -> int:
        """Accesses that hit (accesses - misses)."""
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """misses / accesses; raises on zero accesses."""
        if self.accesses == 0:
            raise ValueError("no accesses recorded")
        return self.misses / self.accesses


class SetAssociativeCache:
    """Set-associative cache with per-CLOS way masks.

    Two replacement policies:

    * ``"lru"`` (default) — true LRU via access timestamps;
    * ``"plru"`` — bit-PLRU (MRU-bit approximation): each way carries a
      reference bit, set on touch; when every candidate way's bit is set
      the others are cleared; the victim is the first candidate with a
      clear bit. This is the practical approximation real LLCs ship
      (tree/bit PLRU) — and unlike tree-PLRU it composes naturally with
      CAT way masks and non-power-of-two associativity.
    """

    def __init__(self, geometry: CacheGeometry, policy: str = "lru") -> None:
        if policy not in ("lru", "plru"):
            raise ValueError(f"unknown replacement policy {policy!r}")
        self.policy = policy
        self.geometry = geometry
        n = geometry.n_sets * geometry.n_ways
        # Flat arrays indexed set*n_ways + way; tag -1 = invalid.
        self._tags: list[int] = [-1] * n
        self._owner: list[int] = [-1] * n
        self._stamp: list[int] = [0] * n
        self._mru: list[bool] = [False] * n
        self._clock = 0
        full_mask = (1 << geometry.n_ways) - 1
        self._masks: dict[int, int] = {0: full_mask}
        self._stats: dict[int, CacheStats] = {}
        self._set_shift = geometry.line_bytes.bit_length() - 1
        self._set_mask = geometry.n_sets - 1

    # -- configuration ----------------------------------------------------

    def set_clos_mask(self, clos: int, mask: int) -> None:
        """Restrict CLOS ``clos`` fills to the ways set in ``mask``."""
        if clos < 0:
            raise ValueError(f"clos must be >= 0, got {clos}")
        full = (1 << self.geometry.n_ways) - 1
        if mask <= 0 or mask & ~full:
            raise ValueError(
                f"mask {mask:#x} invalid for {self.geometry.n_ways} ways"
            )
        self._masks[clos] = mask

    def clos_mask(self, clos: int) -> int:
        """Current way mask of ``clos`` (full mask by default)."""
        return self._masks.get(clos, (1 << self.geometry.n_ways) - 1)

    def stats(self, clos: int) -> CacheStats:
        """Per-CLOS statistics record (created on first use)."""
        return self._stats.setdefault(clos, CacheStats())

    def reset_stats(self) -> None:
        """Zero all per-CLOS statistics (contents stay cached)."""
        self._stats.clear()

    # -- accesses -----------------------------------------------------------

    def access(self, address: int, clos: int = 0) -> bool:
        """Perform one load; returns True on hit.

        ``address`` is a byte address; the line/set mapping uses the
        standard modulo interleaving.
        """
        if address < 0:
            raise ValueError(f"address must be >= 0, got {address}")
        line = address >> self._set_shift
        set_idx = line & self._set_mask
        tag = line >> self.geometry.n_sets.bit_length() - 1

        stats = self.stats(clos)
        stats.accesses += 1
        self._clock += 1
        base = set_idx * self.geometry.n_ways

        # Lookup across ALL ways (hits ignore masks).
        for way in range(self.geometry.n_ways):
            idx = base + way
            if self._tags[idx] == tag:
                self._touch(idx, base)
                return True

        # Miss: fill the replacement-policy victim within the CLOS mask.
        stats.misses += 1
        mask = self.clos_mask(clos)
        victim = self._select_victim(base, mask)
        if self._tags[victim] != -1:
            stats.evictions_caused += 1
        self._tags[victim] = tag
        self._owner[victim] = clos
        self._touch(victim, base)
        return False

    def _touch(self, idx: int, base: int) -> None:
        """Update replacement state for a touched line."""
        self._stamp[idx] = self._clock
        if self.policy == "plru":
            self._mru[idx] = True
            # When every way in the set is MRU-marked, clear the others.
            if all(
                self._mru[base + w] for w in range(self.geometry.n_ways)
            ):
                for w in range(self.geometry.n_ways):
                    self._mru[base + w] = False
                self._mru[idx] = True

    def _select_victim(self, base: int, mask: int) -> int:
        """Pick the victim way index within ``mask`` for set at ``base``."""
        victim = -1
        victim_stamp = None
        for way in range(self.geometry.n_ways):
            if not mask >> way & 1:
                continue
            idx = base + way
            if self._tags[idx] == -1:
                return idx
            if self.policy == "plru":
                if not self._mru[idx]:
                    return idx
                continue
            if victim_stamp is None or self._stamp[idx] < victim_stamp:
                victim = idx
                victim_stamp = self._stamp[idx]
        if victim < 0:
            # PLRU: every candidate is MRU-marked (possible when the CLOS
            # mask is a subset of the set); fall back to the first
            # candidate, matching hardware's clear-and-restart behaviour.
            for way in range(self.geometry.n_ways):
                if mask >> way & 1:
                    self._mru[base + way] = False
            for way in range(self.geometry.n_ways):
                if mask >> way & 1:
                    return base + way
            raise RuntimeError(  # pragma: no cover - masks validated
                "empty CLOS mask slipped through validation"
            )
        return victim

    # -- introspection --------------------------------------------------------

    def occupancy_lines(self, clos: int) -> int:
        """Lines currently owned (filled) by ``clos`` — the CMT signal."""
        return sum(1 for o in self._owner if o == clos)

    def flush(self) -> None:
        """Invalidate everything (stats are kept)."""
        n = self.geometry.n_sets * self.geometry.n_ways
        self._tags = [-1] * n
        self._owner = [-1] * n
        self._stamp = [0] * n
        self._mru = [False] * n
