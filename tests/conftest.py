"""Shared fixtures and helpers for the test suite."""

import random

import pytest

from repro.core import (
    CheckpointedReallocator,
    CostObliviousReallocator,
    DeamortizedReallocator,
)
from repro.storage.address_space import AddressSpace


REALLOCATOR_CLASSES = [
    CostObliviousReallocator,
    CheckpointedReallocator,
    DeamortizedReallocator,
]


@pytest.fixture(params=REALLOCATOR_CLASSES, ids=lambda cls: cls.name)
def reallocator_class(request):
    """Parametrize a test over the three paper variants."""
    return request.param


def random_churn(allocator, steps, seed=0, max_size=64, delete_probability=0.45):
    """Drive ``allocator`` with a random insert/delete mix; returns live dict."""
    rng = random.Random(seed)
    live = {}
    next_id = 0
    for _ in range(steps):
        if live and rng.random() < delete_probability:
            name = rng.choice(list(live))
            allocator.delete(name)
            del live[name]
        else:
            next_id += 1
            size = rng.randint(1, max_size)
            allocator.insert(next_id, size)
            live[next_id] = size
    return live


# ------------------------------------------------------ frozen-space oracle
class _OracleSpace(AddressSpace):
    """Address space that checks every write against the oracle's frees.

    Every physical write (a placement or a move destination) is compared with
    every span ``(start, end)`` freed (by a removal or a move away) since the
    owner's last checkpoint, by brute force and without asking the
    checkpoint manager.
    """

    def __init__(self, owner):
        super().__init__()
        self._owner = owner

    def _check(self, name, start, end):
        owner = self._owner
        owner.oracle_writes += 1
        for freed_start, freed_end in owner.oracle_freed:
            if start < freed_end and freed_start < end:
                owner.oracle_violations.append((name, (start, end), (freed_start, freed_end)))

    def place(self, name, start, length):
        self._check(name, start, start + length)
        super().place(name, start, length)

    def move(self, name, start):
        old = self.extent_of(name)
        self._check(name, start, start + old.length)
        old_start = super().move(name, start)
        self._owner.oracle_freed.append((old.start, old.end))
        return old_start

    def remove(self, name):
        length = self.extent_of(name).length
        start = super().remove(name)
        self._owner.oracle_freed.append((start, start + length))
        return start


def with_frozen_space_oracle(cls):
    """A recording subclass of the checkpointed reallocator ``cls``.

    Instances collect, in ``oracle_violations``, every write that landed on
    space freed since the last checkpoint; ``oracle_writes`` and
    ``oracle_checkpoints`` show the oracle actually saw traffic.
    """

    class FrozenSpaceOracle(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.space = _OracleSpace(self)
            self.oracle_freed = []
            self.oracle_violations = []
            self.oracle_writes = 0
            self.oracle_checkpoints = 0

        def checkpoint(self):
            count = super().checkpoint()
            self.oracle_freed = []
            self.oracle_checkpoints += 1
            return count

    return FrozenSpaceOracle
