"""Request and trace datatypes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, List, Optional, Protocol, Sequence, Tuple

INSERT = "insert"
DELETE = "delete"


class RequestSource(Protocol):
    """Anything that can feed requests to a replay, one at a time.

    The streaming counterpart of :class:`Trace`: ``Allocator.run``,
    :meth:`~repro.engine.EngineSession.run`, and ``repro.metrics.run_trace``
    accept any object satisfying this protocol, so a multi-million-request
    replay (e.g. a :class:`~repro.workloads.replay.TraceFileSource` over an
    on-disk v3 file) never has to materialise its trace.  Iteration must be
    repeatable: each ``iter()`` yields the same requests from the start.
    A :class:`Trace` satisfies the protocol trivially.
    """

    label: str

    def __iter__(self) -> Iterator["Request"]: ...


@dataclass(frozen=True)
class Request:
    """One online request: insert an object of a given size, or delete it."""

    op: str
    name: Hashable
    size: int = 0

    def __post_init__(self) -> None:
        if self.op not in (INSERT, DELETE):
            raise ValueError(f"unknown op {self.op!r}")
        if self.op == INSERT and self.size < 1:
            raise ValueError("insert requests need a positive size")

    @property
    def is_insert(self) -> bool:
        return self.op == INSERT

    @property
    def is_delete(self) -> bool:
        return self.op == DELETE

    @staticmethod
    def insert(name: Hashable, size: int) -> "Request":
        return Request(INSERT, name, size)

    @staticmethod
    def delete(name: Hashable) -> "Request":
        return Request(DELETE, name)


class Trace:
    """An ordered sequence of requests plus convenience statistics.

    ``metadata`` is a free-form dict carried alongside the requests (seed,
    generator parameters, provenance); the v1 trace file format round-trips
    it, and campaign workloads stamp it with their spec entry.
    """

    def __init__(
        self,
        requests: Iterable[Request],
        label: str = "trace",
        metadata: Optional[dict] = None,
    ) -> None:
        self.requests: List[Request] = list(requests)
        self.label = label
        self.metadata: dict = dict(metadata) if metadata else {}
        self._validate()

    def _validate(self) -> None:
        live = {}
        for index, request in enumerate(self.requests):
            if request.is_insert:
                if request.name in live:
                    raise ValueError(
                        f"request {index}: {request.name!r} inserted while active"
                    )
                live[request.name] = request.size
            else:
                if request.name not in live:
                    raise ValueError(
                        f"request {index}: {request.name!r} deleted while inactive"
                    )
                del live[request.name]

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self.requests)

    def __getitem__(self, index):
        return self.requests[index]

    @property
    def num_inserts(self) -> int:
        return sum(1 for r in self.requests if r.is_insert)

    @property
    def num_deletes(self) -> int:
        return sum(1 for r in self.requests if r.is_delete)

    @property
    def delta(self) -> int:
        """Largest object size appearing in the trace."""
        return max((r.size for r in self.requests if r.is_insert), default=0)

    @property
    def total_inserted_volume(self) -> int:
        return sum(r.size for r in self.requests if r.is_insert)

    def volume_profile(self) -> List[int]:
        """Live volume after each request."""
        live = {}
        profile = []
        for request in self.requests:
            if request.is_insert:
                live[request.name] = request.size
            else:
                del live[request.name]
            profile.append(sum(live.values()))
        return profile

    def peak_volume(self) -> int:
        profile = self.volume_profile()
        return max(profile) if profile else 0

    def final_live_objects(self) -> List[Tuple[Hashable, int]]:
        """Objects still active after the whole trace."""
        live = {}
        for request in self.requests:
            if request.is_insert:
                live[request.name] = request.size
            else:
                del live[request.name]
        return list(live.items())

    def prefix(self, count: int, label: Optional[str] = None) -> "Trace":
        """A shorter trace consisting of the first ``count`` requests that is
        still well-formed (dangling deletes cannot occur in a prefix)."""
        return Trace(self.requests[:count], label or f"{self.label}[:{count}]", metadata=self.metadata)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Trace {self.label!r} requests={len(self.requests)} "
            f"inserts={self.num_inserts} deletes={self.num_deletes}>"
        )


def trace_from_pairs(pairs: Sequence[Tuple[str, Hashable, int]], label: str = "trace") -> Trace:
    """Build a trace from ``("insert"|"delete", name, size)`` tuples."""
    requests = []
    for op, name, size in pairs:
        if op == INSERT:
            requests.append(Request.insert(name, size))
        else:
            requests.append(Request.delete(name))
    return Trace(requests, label=label)
