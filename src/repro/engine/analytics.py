"""One-pass streaming trace analytics.

:class:`TraceAnalyticsObserver` computes the full WiscSee-style trace
characterisation — footprint profile, size/lifetime percentiles, death-time
grouping — from a single pass over any request stream: a materialised
:class:`~repro.workloads.base.Trace`, a streaming
:class:`~repro.workloads.replay.TraceFileSource`, or the live request feed
of a replay (it is an :class:`~repro.engine.observers.Observer`, so it can
ride along on an :meth:`~repro.engine.EngineSession.run`).

Every statistic is *identical* to the one the materialised implementation
produced — same nearest-rank percentiles, same float accumulation order for
the mean, same death-bucket boundaries — while peak memory is bounded by
the live-object set, the distinct size/lifetime values, and one compact
byte-packed record per death, never by the request count.  The one
representational choice: object names are compared by their string form
(``str(name)``), which is exactly what every trace file format round-trips.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.observers import (
    Observer,
    ShardContext,
    decimate_series,
    planned_stride,
)


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already-sorted sequence (0 if empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def _percentile_from_counts(
    items: Sequence[Tuple[int, int]], total: int, fraction: float
) -> float:
    """Nearest-rank percentile over ``(value, count)`` pairs sorted by value.

    Equivalent to :func:`percentile` on the expanded sorted sequence of
    ``total`` values, without ever expanding it.
    """
    if total <= 0:
        return 0.0
    index = min(total - 1, max(0, round(fraction * (total - 1))))
    seen = 0
    for value, count in items:
        seen += count
        if index < seen:
            return value
    return items[-1][0]  # pragma: no cover - total always matches the counts


def size_histogram_from_counts(counts: Dict[int, int]) -> List[Dict[str, int]]:
    """Counts and volume per power-of-two bucket from a ``size -> count`` map.

    Sizes of zero (or below) get their own ``[0, 0]`` bucket instead of
    being mis-filed into ``[1, 1]`` the way the historical exponent formula
    did — a zero-sized request carries no volume and must not inflate the
    smallest real bucket.
    """
    buckets: Dict[int, Dict[str, int]] = {}
    for size, count in counts.items():
        if size <= 0:
            exponent, low, high = -1, 0, 0
        else:
            exponent = size.bit_length() - 1
            low, high = 1 << exponent, (1 << (exponent + 1)) - 1
        bucket = buckets.setdefault(
            exponent, {"low": low, "high": high, "count": 0, "volume": 0}
        )
        bucket["count"] += count
        bucket["volume"] += size * count
    return [buckets[exponent] for exponent in sorted(buckets)]


def size_histogram(sizes: Iterable[int]) -> List[Dict[str, int]]:
    """Counts and volume per power-of-two size bucket ``[2^k, 2^(k+1))``."""
    counts: Dict[int, int] = {}
    for size in sizes:
        counts[size] = counts.get(size, 0) + 1
    return size_histogram_from_counts(counts)


class _NameSet:
    """Append-only exact string-membership set, a few bytes per short name.

    The streaming analytics must remember every object name that has died
    (that is how a re-insert is told apart from a brand-new object), and a
    Python ``set`` of n string objects costs ~90 bytes per short name —
    enough to blow the streaming-peak-memory budget on multi-million-request
    traces.  This set packs the UTF-8 bytes of every added name into one
    blob with an open-addressed offset table instead, so membership stays
    exact while memory drops an order of magnitude.  Append-only by design:
    the analytics never need to forget a dead name.
    """

    __slots__ = ("_blob", "_offsets", "_lengths", "_table")

    def __init__(self) -> None:
        self._blob = bytearray()
        self._offsets = array("Q")
        self._lengths = array("I")
        self._table = array("i", [-1]) * 256

    def __len__(self) -> int:
        return len(self._offsets)

    def _slot(self, key: bytes) -> int:
        """The slot holding ``key``, or the empty slot where it would go."""
        mask = len(self._table) - 1
        index = hash(key) & mask
        table, blob = self._table, self._blob
        length = len(key)
        while True:
            entry = table[index]
            if entry < 0:
                return index
            offset = self._offsets[entry]
            if self._lengths[entry] == length and blob[offset : offset + length] == key:
                return index
            index = (index + 1) & mask

    def __contains__(self, name: str) -> bool:
        return self._table[self._slot(name.encode("utf-8"))] >= 0

    def add(self, name: str) -> None:
        key = name.encode("utf-8")
        slot = self._slot(key)
        if self._table[slot] >= 0:
            return
        entry = len(self._offsets)
        self._offsets.append(len(self._blob))
        self._lengths.append(len(key))
        self._blob += key
        self._table[slot] = entry
        if (entry + 1) * 3 >= len(self._table) * 2:
            self._grow()

    def _grow(self) -> None:
        table = array("i", [-1]) * (len(self._table) * 2)
        mask = len(table) - 1
        blob = self._blob
        for entry, (offset, length) in enumerate(zip(self._offsets, self._lengths)):
            index = hash(bytes(blob[offset : offset + length])) & mask
            while table[index] >= 0:
                index = (index + 1) & mask
            table[index] = entry
        self._table = table


@dataclass
class TraceAnalytics:
    """Every statistic :class:`TraceAnalyticsObserver` computes for one trace."""

    label: str
    requests: int
    inserts: int
    deletes: int
    distinct_objects: int
    delta: int
    inserted_volume: int
    peak_volume: int
    mean_volume: float
    final_volume: int
    turnover: float
    sizes: Dict[str, float]
    lifetimes: Dict[str, float]
    immortal_objects: int
    immortal_volume: int
    histogram: List[Dict[str, int]] = field(default_factory=list)
    death_groups: List[Dict[str, float]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


class TraceAnalyticsObserver(Observer):
    """Streaming, one-pass trace analytics usable on any request stream.

    Feed it requests directly (:meth:`observe`, e.g. while iterating a
    :class:`~repro.workloads.replay.TraceFileSource`) or attach it to a
    :class:`~repro.engine.EngineSession` replay (``on_request`` consumes
    the same fields from each :class:`~repro.core.events.RequestRecord`),
    then call :meth:`result` for the finished :class:`TraceAnalytics`.

    Memory is bounded by the live-object set, the distinct size/lifetime
    values, the byte-packed dead-name set, and 16 bytes per death (death
    indices must be re-bucketed once the total request count is known) —
    never by the request count.  A bounded live-volume series (adaptive
    stride, at most ``max_points`` samples) is kept alongside for terminal
    charts and campaign exports.

    Exactly mergeable (``merge_exact = True``): every statistic is derived
    purely from the request stream, so a sharded replay seeded from v3
    block-entry snapshots and merged left to right is byte-identical to the
    serial pass.  A shard seeds its live set from the snapshot with a
    sentinel birth index (the true birth lives in an earlier shard); deaths
    of those objects are resolved when :meth:`merge` joins the shards.
    :meth:`result` is only meaningful on a fully merged chain (or a serial
    observer) — an interior shard still carries unresolved sentinels.
    """

    export_key = "trace_analytics"
    mergeable = True
    merge_exact = True

    def __init__(self, death_buckets: int = 10, max_points: int = 512) -> None:
        if death_buckets < 1:
            raise ValueError(f"death_buckets must be >= 1, got {death_buckets}")
        if max_points < 2:
            raise ValueError(f"max_points must be >= 2, got {max_points}")
        self.death_buckets = int(death_buckets)
        self.max_points = int(max_points)
        self._births: Dict[object, int] = {}
        self._birth_sizes: Dict[object, int] = {}
        self._size_counts: Dict[int, int] = {}
        self._lifetime_counts: Dict[int, int] = {}
        self._death_indices = array("q")
        self._death_sizes = array("q")
        self._dead_names = _NameSet()
        self._distinct = 0
        self._requests = 0
        self._inserts = 0
        self._deletes = 0
        self._volume = 0
        # Integer accumulation of the running volume: exact at any scale and
        # order-independent, which is what makes shard merging associative.
        # float(sum) / total at result() time equals the historical
        # request-order float accumulation whenever the intermediate sums
        # stay below 2**53, and is simply more accurate beyond that.
        self._volume_sum = 0
        self._peak = 0
        self._inserted_volume = 0
        self._delta = 0
        self.series_indices: List[int] = []
        self.series_volume: List[int] = []
        self._stride = 1
        # Shard-mode state (unused, and empty, in a serial pass).
        self._shard_mode = False
        self._inserted_names: set = set()
        self._entry_pending_deaths: List[Tuple[object, int]] = []

    # ----------------------------------------------------------------- shards
    def begin_shard(self, context: ShardContext) -> None:
        self._shard_mode = True
        # Count requests at global trace indices so death indices, lifetimes
        # and series indices come out identical to the serial pass.
        self._requests = context.start_index
        volume = 0
        for name, size in context.entry_live:
            # Sentinel birth: the object was born in an earlier shard.  Its
            # true birth index is resolved at merge time.
            self._births[name] = -1
            self._birth_sizes[name] = size
            volume += size
        self._volume = volume
        # Sample at the serial run's final stride from the start; a shard
        # then never exceeds max_points samples and never decimates, and the
        # concatenated shard series equals the serial one.
        self._stride = planned_stride(context.total_records, self.max_points)

    def merge(self, other: "TraceAnalyticsObserver") -> None:
        """Fold the next (adjacent-on-the-right) shard into this one."""
        # Deaths of objects live at `other`'s entry: the merged prefix ends
        # exactly where `other` starts, so their true births are in self.
        counts = self._lifetime_counts
        for name, death_index in other._entry_pending_deaths:
            born = self._births.pop(name)
            self._birth_sizes.pop(name)
            lifetime = death_index - born
            counts[lifetime] = counts.get(lifetime, 0) + 1
        # Objects still live at `other`'s exit.  A sentinel birth (-1) means
        # the object lived through the whole shard and self already holds
        # its true birth; an in-shard birth is simply carried over.
        for name, born in other._births.items():
            if born >= 0:
                self._births[name] = born
                self._birth_sizes[name] = other._birth_sizes[name]
        for lifetime, count in other._lifetime_counts.items():
            counts[lifetime] = counts.get(lifetime, 0) + count
        sizes = self._size_counts
        for size, count in other._size_counts.items():
            sizes[size] = sizes.get(size, 0) + count
        self._death_indices.extend(other._death_indices)
        self._death_sizes.extend(other._death_sizes)
        self._inserted_names |= other._inserted_names
        self._distinct = len(self._inserted_names)
        self._requests = other._requests
        self._inserts += other._inserts
        self._deletes += other._deletes
        self._volume = other._volume
        self._volume_sum += other._volume_sum
        self._peak = max(self._peak, other._peak)
        self._inserted_volume += other._inserted_volume
        self._delta = max(self._delta, other._delta)
        self.series_indices.extend(other.series_indices)
        self.series_volume.extend(other.series_volume)

    # ------------------------------------------------------------- ingestion
    def observe(self, request) -> None:
        """Consume one request (anything with ``op``/``name``/``size``).

        Raises the same :class:`ValueError` a materialised
        :class:`~repro.workloads.base.Trace` raises at construction for an
        inconsistent stream (insert of a live name, delete of a dead one),
        so a malformed trace file fails loudly instead of yielding
        silently-wrong statistics.
        """
        index = self._requests
        self._requests += 1
        if request.op == "insert":
            name = request.name
            if name in self._births:
                raise ValueError(f"request {index}: {name!r} inserted while active")
            size = request.size
            if self._shard_mode:
                # Distinct objects = distinct names ever inserted.  A shard
                # cannot know whether a name already died in an earlier
                # shard, so it records the names it inserted; merge counts
                # the union, which is exactly the serial total.
                key = str(name)
                inserted = self._inserted_names
                if key not in inserted:
                    inserted.add(key)
                    self._distinct += 1
            # A name whose first event is this insert has never died (a
            # delete needs a live object), so "not previously dead" is
            # exactly "never seen": count it once.
            elif str(name) not in self._dead_names:
                self._distinct += 1
            self._births[name] = index
            self._birth_sizes[name] = size
            self._size_counts[size] = self._size_counts.get(size, 0) + 1
            self._inserts += 1
            self._inserted_volume += size
            if size > self._delta:
                self._delta = size
            self._volume += size
        else:
            name = request.name
            if name not in self._births:
                raise ValueError(f"request {index}: {name!r} deleted while inactive")
            born = self._births.pop(name)
            size = self._birth_sizes.pop(name)
            if born >= 0:
                lifetime = index - born
                self._lifetime_counts[lifetime] = self._lifetime_counts.get(lifetime, 0) + 1
            else:
                # Sentinel: born in an earlier shard.  The death index and
                # size are exact already; the lifetime waits for merge().
                self._entry_pending_deaths.append((name, index))
            self._death_indices.append(index)
            self._death_sizes.append(size)
            if not self._shard_mode:
                self._dead_names.add(str(name))
            self._deletes += 1
            self._volume -= size
        if self._volume > self._peak:
            self._peak = self._volume
        self._volume_sum += self._volume
        if index % self._stride == 0:
            self.series_indices.append(index)
            self.series_volume.append(self._volume)
            if len(self.series_indices) > self.max_points:
                decimate_series(self.series_indices, (self.series_volume,))
                self._stride *= 2

    # The engine hands RequestRecord objects, which carry the same
    # op/name/size fields (a delete record carries the object's real size,
    # which observe() ignores in favour of the recorded birth size).
    on_request = observe

    # --------------------------------------------------------------- results
    def result(self, label: str = "trace") -> TraceAnalytics:
        """The finished analytics bundle (idempotent; state is not consumed)."""
        total = max(1, self._requests)
        buckets = self.death_buckets
        deaths: List[Dict[str, float]] = [
            {"bucket": index, "objects": 0, "volume": 0} for index in range(buckets)
        ]
        for index, size in zip(self._death_indices, self._death_sizes):
            bucket = min(buckets - 1, (index * buckets) // total)
            deaths[bucket]["objects"] += 1
            deaths[bucket]["volume"] += size
        inserted_volume = self._inserted_volume
        for bucket in deaths:
            bucket["volume_fraction"] = round(bucket["volume"] / max(1, inserted_volume), 4)

        lifetime_counts = dict(self._lifetime_counts)
        for born in self._births.values():
            lifetime = self._requests - born
            lifetime_counts[lifetime] = lifetime_counts.get(lifetime, 0) + 1
        lifetime_items = sorted(lifetime_counts.items())
        lifetimes_total = self._deletes + len(self._births)
        size_items = sorted(self._size_counts.items())

        return TraceAnalytics(
            label=label,
            requests=self._requests,
            inserts=self._inserts,
            deletes=self._deletes,
            distinct_objects=self._distinct,
            delta=self._delta,
            inserted_volume=inserted_volume,
            peak_volume=self._peak,
            mean_volume=round(self._volume_sum / total, 2),
            final_volume=self._volume,
            turnover=round(inserted_volume / max(1, self._peak), 3),
            sizes={
                "p50": _percentile_from_counts(size_items, self._inserts, 0.50),
                "p90": _percentile_from_counts(size_items, self._inserts, 0.90),
                "p99": _percentile_from_counts(size_items, self._inserts, 0.99),
                "max": float(size_items[-1][0]) if size_items else 0.0,
            },
            lifetimes={
                "p50": _percentile_from_counts(lifetime_items, lifetimes_total, 0.50),
                "p90": _percentile_from_counts(lifetime_items, lifetimes_total, 0.90),
                "p99": _percentile_from_counts(lifetime_items, lifetimes_total, 0.99),
                "max": float(lifetime_items[-1][0]) if lifetime_items else 0.0,
            },
            immortal_objects=len(self._births),
            immortal_volume=sum(self._birth_sizes.values()),
            histogram=size_histogram_from_counts(self._size_counts),
            death_groups=deaths,
        )

    def export(self) -> Dict[str, Any]:
        """A JSON-serialisable summary (used by campaign artifacts)."""
        out = self.result().to_dict()
        out["volume_series"] = {
            "stride": self._stride,
            "indices": list(self.series_indices),
            "volume": list(self.series_volume),
        }
        return out


def analyze_source(
    source, death_buckets: int = 10, label: Optional[str] = None
) -> TraceAnalytics:
    """One-pass analytics over any iterable of requests.

    Streaming counterpart of the historical materialised ``analyze_trace``:
    the statistics are identical whether ``source`` is a
    :class:`~repro.workloads.base.Trace` or a
    :class:`~repro.workloads.replay.TraceFileSource` over the same requests.
    """
    observer = TraceAnalyticsObserver(death_buckets=death_buckets)
    for request in source:
        observer.observe(request)
    if label is None:
        label = getattr(source, "label", "trace")
    return observer.result(label=label)
