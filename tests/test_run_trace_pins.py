"""Byte-identity pins for :func:`repro.metrics.run_trace`.

Each case replays one fixed v3 churn trace on one allocator in one run mode
and hashes every :class:`~repro.metrics.ExecutionMetrics` field except
``elapsed_seconds`` (sorted JSON, so floats are pinned to the last bit).
The modes are the ways ``run_trace`` reads a trace: a materialised
:class:`~repro.workloads.base.Trace`, a streamed
:class:`~repro.workloads.replay.TraceFileSource`, the streamed source with
a footprint series (``sample_every``), and a 3-shard replay of the file.
The digests were captured before ``run_trace`` stopped reading its metrics
through dedicated observers and began reading the allocator's stats, so a
rewrite of the read path or of the shard fold that changes any figure
fails here.

To re-capture after a deliberate behaviour change, print
``_digest(_run(allocator, mode, path))`` for every case and paste them.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.allocators import BestFitAllocator, FirstFitAllocator
from repro.core import CheckpointedReallocator, CostObliviousReallocator, DeamortizedReallocator
from repro.costs import STANDARD_COST_SUITE
from repro.metrics import run_trace
from repro.workloads import TraceFileSource, UniformSizes, churn_trace, load_trace, save_trace

ALLOCATORS = {
    "first-fit": FirstFitAllocator,
    "best-fit": BestFitAllocator,
    "cost_oblivious-0.25": lambda: CostObliviousReallocator(epsilon=0.25),
    "deamortized-0.25": lambda: DeamortizedReallocator(epsilon=0.25),
    "checkpointed-0.1": lambda: CheckpointedReallocator(epsilon=0.1),
}


@pytest.fixture(scope="module")
def pinned_trace(tmp_path_factory):
    """A 3000-request churn saved as v3 with 500-record blocks (6 blocks)."""
    trace = churn_trace(3000, UniformSizes(1, 64), target_live=80, seed=25, label="pinned")
    path = tmp_path_factory.mktemp("pins") / "churn.v3"
    save_trace(trace, path, version=3, block_records=500)
    return path


def _run(allocator, mode, path):
    if mode == "materialised":
        return run_trace(allocator, load_trace(path), STANDARD_COST_SUITE)
    source = TraceFileSource(path)
    if mode == "streamed":
        return run_trace(allocator, source, STANDARD_COST_SUITE)
    if mode == "sampled":
        return run_trace(allocator, source, STANDARD_COST_SUITE, sample_every=50)
    return run_trace(allocator, source, STANDARD_COST_SUITE, jobs=3)


def _digest(metrics):
    fields = dataclasses.asdict(metrics)
    del fields["elapsed_seconds"]
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


#: (allocator, mode) -> digest of the metrics.
PINS = {
    ('first-fit', 'materialised'): 'aaa8de36853548a12a6d814926ff27b0a3168faf79756ee01352ddf1d3e34bb3',
    ('first-fit', 'streamed'): 'aaa8de36853548a12a6d814926ff27b0a3168faf79756ee01352ddf1d3e34bb3',
    ('first-fit', 'sampled'): '7270d9a5803fb3c67d291ab390af8e54f45d893c55a01c0b1bccf0d92bab7c47',
    ('first-fit', 'sharded'): '5fd4ae1601b1ffa6b0895b9bd0f70ed41bf79f5482cb9cc04509cef5fb804955',
    ('best-fit', 'materialised'): '4d956567b3bae4238508fa013fef35433afc672403a3c1b5ce3a44736238b889',
    ('best-fit', 'streamed'): '4d956567b3bae4238508fa013fef35433afc672403a3c1b5ce3a44736238b889',
    ('best-fit', 'sampled'): '74db615a462813fe060c3c6a611d04e4b6721708ec0d9ed93833728044594d4a',
    ('best-fit', 'sharded'): '0ea8b9ccaffa6e3819ca11cd4f15e3376c6d9b9e4662d969db76667e950beaba',
    ('cost_oblivious-0.25', 'materialised'): '4feb9c7f4ccabf4cda5ccb2d365de03b6e02256c6ef5ff5c1a0a706377141d5c',
    ('cost_oblivious-0.25', 'streamed'): '4feb9c7f4ccabf4cda5ccb2d365de03b6e02256c6ef5ff5c1a0a706377141d5c',
    ('cost_oblivious-0.25', 'sampled'): '25da5507d9d44663b56b2d0650002d467002b72fa5468f9874a6a7f0c64075f2',
    ('cost_oblivious-0.25', 'sharded'): '960820070333308d28ee22f7d149f2eb383e653699b2580e9f1533036a3fa059',
    ('deamortized-0.25', 'materialised'): '7e0f10261668b756c6b7ba7d32b7791ad9312c7cf6b864c4f78d0eebffd0b7ca',
    ('deamortized-0.25', 'streamed'): '7e0f10261668b756c6b7ba7d32b7791ad9312c7cf6b864c4f78d0eebffd0b7ca',
    ('deamortized-0.25', 'sampled'): '1edaa24a6da34a1405d5ee0980e610a4ae71294723dd9b3103b76fd64042fa3c',
    ('deamortized-0.25', 'sharded'): 'b80c0a85b2b53a0164bcc8d24413b41515baa2777e467cb6c192bfd231987b91',
    ('checkpointed-0.1', 'materialised'): 'd6663178ce891378bd0492fd8cd8cf905777422248a5925bf8b40b517822705d',
    ('checkpointed-0.1', 'streamed'): 'd6663178ce891378bd0492fd8cd8cf905777422248a5925bf8b40b517822705d',
    ('checkpointed-0.1', 'sampled'): '51737271fb2aa60a8a53df240fa2fcc73ab84d31a548228015452e77b6d901e5',
    ('checkpointed-0.1', 'sharded'): 'd115041d1f523c7bb60e012555944112e1a0c3ae0581e2a5eaec534bae2c73cb',
}


@pytest.mark.parametrize("case", sorted(PINS), ids="-".join)
def test_run_trace_metrics_are_byte_identical_to_the_pins(case, pinned_trace):
    name, mode = case
    assert _digest(_run(ALLOCATORS[name](), mode, pinned_trace)) == PINS[case]
