"""Byte-identity pins for the paper's three reallocators.

Each case replays a traced random churn, drives any pending deamortized
flush to completion, and hashes everything observable about the run: every
request's move sequence, flush record, checkpoint count and footprint, the
final layout, the aggregate stats, the blocked-checkpoint count and the
checkpoint manager's state (``None`` for the amortized reallocator, which
has neither).  The checkpointed and deamortized digests were captured
before the frozen space was indexed and the checkpointed move path was
rebuilt, the amortized ones before its flush moved to the shared move-item
pipeline, so a rewrite that changes any decision, any move or any recorded
figure fails here.

To re-capture after a deliberate behaviour change, print
``_fingerprint(cls, epsilon, seed)`` for every case and paste the digests.

The pins drive the traced path (``insert``/``delete`` build a record per
request).  Benchmarks and the serve tier replay through ``run`` with nothing
observing, which skips every event; the second test checks that this
untraced path ends in the same state as the pinned traced one.
"""

import hashlib

import pytest

from repro.core import CheckpointedReallocator, CostObliviousReallocator, DeamortizedReallocator
from repro.workloads.base import Request
from tests.conftest import random_churn

STEPS = 600
MAX_SIZE = 80


def _extent(extent):
    return None if extent is None else (extent.start, extent.length)


def _fingerprint(cls, epsilon, seed):
    realloc = cls(epsilon=epsilon, trace=True)
    random_churn(realloc, steps=STEPS, seed=seed, max_size=MAX_SIZE)
    finish = getattr(realloc, "finish_pending_work", None)
    if finish is not None:
        finish()
    history = [
        (
            record.index,
            record.op,
            record.name,
            record.size,
            [
                (move.name, move.size, _extent(move.source), _extent(move.destination), move.reason)
                for move in record.moves
            ],
            record.flush,
            record.checkpoints,
            record.footprint_after,
            record.volume_after,
        )
        for record in realloc.history
    ]
    stats = dict(vars(realloc.stats))
    stats["allocated_sizes"] = sorted(stats["allocated_sizes"].items())
    stats["moved_sizes"] = sorted(stats["moved_sizes"].items())
    checkpoints = getattr(realloc, "checkpoints", None)
    payload = (
        history,
        sorted((name, _extent(extent)) for name, extent in realloc.space.items()),
        sorted(stats.items()),
        getattr(realloc, "blocked_checkpoints", None),
        None if checkpoints is None else sorted(checkpoints.to_state().items()),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


#: (class name, epsilon, seed) -> digest captured before the rewrite it pins.
PINS = {
    ('checkpointed', 0.1, 1): 'bb3abdbd3ae42d0e837aae5fd89a38368cbc2a18e177d4340319ea702847e265',
    ('checkpointed', 0.1, 2): 'd73df48ba89546dbe6d05a265123ad3ae66a0fd19f402fd838064788b4709f74',
    ('checkpointed', 0.1, 3): '761b507065eceb5c36e6850fdeb00deda526c8c9c0975257f592c376da3e3f6a',
    ('checkpointed', 0.1, 4): '59e0ff8a50c01b99818a10dd30a7e4125402c215fe984231e9905c34d437cbc3',
    ('checkpointed', 0.1, 5): '06e147d68ec3720f3c2430cdcdf142ca27b402eacd12abb043545f85fc888e8a',
    ('checkpointed', 0.1, 6): '93befbfc742303c4064c3de002bcaec1ed1856c958bbac1fd9a7e6b70b492c60',
    ('checkpointed', 0.25, 1): '2278b4912747232a8081af4fe03d5e43331e0403a9521008de1dae17a126f749',
    ('checkpointed', 0.25, 2): '1f16c0194b6b3a446c47d1a6154db15821dce65ec3e4aebd14aed8e7ceb7a136',
    ('checkpointed', 0.25, 3): 'd3fe1bab2258e0a686d4ff6911b796277ed168d7b078a564c643ae13ece65cee',
    ('checkpointed', 0.25, 4): '939e7f98e8acbc5ea253c67df58891c6bf14738e86b0ea58b06465723bd0973e',
    ('checkpointed', 0.25, 5): '67167ba6b0330c477d315e488a4cfc568e7957734637e4fa90a3a4855b7ddc58',
    ('checkpointed', 0.25, 6): 'e7c9140ecc59fd11ff348a997f990ed7e533f2285657144694afe437d62e2fd5',
    ('checkpointed', 0.5, 1): '57ccc8204427c258b12dd3e429d96bd6a9c1837a331842f98d4a089005072f22',
    ('checkpointed', 0.5, 2): 'f65e04ecf2ed03f1ddbdc1a0692b0857a1c66a26cae8477daeb70d3fc915d27e',
    ('checkpointed', 0.5, 3): '822ef6233392fffe3ef60f85e60d3de69f6f892c6cbe40461dbbbeb1abb489fb',
    ('checkpointed', 0.5, 4): '5ed26daf6a79cc6cb26f44a5e97abc63f63eeecccfa4745c2d35065636fd1698',
    ('checkpointed', 0.5, 5): '8843495d20fd6f86ee0e19935f4b8cb07b6f8f01ed5d0bdc9bc425eb64802e67',
    ('checkpointed', 0.5, 6): '0eaf80cf5969b4fd65d346731d71537f153678bd1f1aab36e168bc6da6b7f444',
    ('cost-oblivious', 0.1, 1): '5a65917d669aff325449233e14dc993bd22fcb0c59d65b9b7a98db5442109403',
    ('cost-oblivious', 0.1, 2): '1e2f577c6711014e73787e8b3a844df91acd098de2e2e058ceb37d57a3ad54d0',
    ('cost-oblivious', 0.1, 3): '834504c4432e6173d5617563ef959dce38b8ab5a610a83e8f50f71dceb3f3dc7',
    ('cost-oblivious', 0.1, 4): '6fd5a500c6011f12d361ce452d8d2313aed13c449a4d89ad6c4e89da8b55fffe',
    ('cost-oblivious', 0.1, 5): 'd5a0736a976d65c1ea6ec6d0aa70017e02bec4cbf64424c781f3715110d76f92',
    ('cost-oblivious', 0.1, 6): 'cb43b6d584e9bb9faac3858a6a0eda1adefb425ee74cbca4a8588a15d8719261',
    ('cost-oblivious', 0.25, 1): '88a80242f32202f43869abe80b9916de7d76274e877a99235f17d32a3b913abd',
    ('cost-oblivious', 0.25, 2): 'ff205586c324a6217959467e0e82aa455ffb882c261487b62e379832f2165abc',
    ('cost-oblivious', 0.25, 3): '108855e5118b2b0b7c33c8371ea5cb983bd8a2686f5b86cbc2d8270f68462065',
    ('cost-oblivious', 0.25, 4): '33e080e8ce52bfbe9beecb60b9cd0af8630496ecd5fa984160daef6a804f7579',
    ('cost-oblivious', 0.25, 5): '4bfb690ea9cc0f5d1ac96cf5b6cb583ea5a67ce639b6b83c2e52b3d7605feaa8',
    ('cost-oblivious', 0.25, 6): '0ea5706454be8a6070c25898cae021014b0a00206791dcc454c6f8b8d87bdfbe',
    ('cost-oblivious', 0.5, 1): 'd8f4ddede4293ea59ca66f176a2fb8d73fb63923288c509ba1ab98a51d5e3951',
    ('cost-oblivious', 0.5, 2): 'bc8ba9a92e3b4f8bab64a2ffdd3174e35fb55ef29a440331c469bad6ff8b81f9',
    ('cost-oblivious', 0.5, 3): '664234591c1ccc4835f2667336729b53bea930c0a0932c9fe1b1ce910b3688fb',
    ('cost-oblivious', 0.5, 4): '770a8fecde4291160d3490a82040218e134a5eda5cff6f1549918eccddeecfd8',
    ('cost-oblivious', 0.5, 5): 'e0811fd7696e18746cc36fe6ddbf13365e13822a32c65e5dbc69b9aafc9ae62a',
    ('cost-oblivious', 0.5, 6): '27f5a85ce9f96ae5723a5b42c2794b4daf4ee3243d885747f79db5749fdb8c74',
    ('deamortized', 0.1, 1): '08137db9d7b0c3665d1174e37894b04245fd6c8ce59e50abb0468d67302d864f',
    ('deamortized', 0.1, 2): '4bba5e82a80ae0eb50f336ed65140e4b79e770aaaa8a39d843b79c241c37c83c',
    ('deamortized', 0.1, 3): 'efa0632369ca5afd8629502616cf64591bf9a7271e31006ae197554fc9154666',
    ('deamortized', 0.1, 4): 'bd1dbd19dc59bb22a0dd937e67d90a4e52588da5c3252e4347472c0a10ffa392',
    ('deamortized', 0.1, 5): '9a7e7e6a26a623ed9bf79406f5a64760e43f41d2f11d34f11157bbd96c107a5c',
    ('deamortized', 0.1, 6): '0826c12b9f5421b27f470e5a04f9529d6bcbf84d7d4d7d9f9c0b71d203da37a6',
    ('deamortized', 0.25, 1): '055c7a5fa239bd107d9b4637e74b880f7d2fda88ef1dcdea2dd8b3edaa942dff',
    ('deamortized', 0.25, 2): '1e5d32f182b060110cac786ae8db976b5a9242a92da91846342b5737a05698a6',
    ('deamortized', 0.25, 3): 'f7935172da4f298f2dd98319c1a72672f56d3f7f754b17dddf9b5e748434bd04',
    ('deamortized', 0.25, 4): '67d296332ed1946899da61ad8b6c5005b6b1637ee9435a23a6bb731ea276e029',
    ('deamortized', 0.25, 5): '8f50e6e8f30401152eb493f1f2393e967dcd0a63795fb1992cc96db55e03e0b8',
    ('deamortized', 0.25, 6): 'a332460458da96431de4b8ab99f6354d1dd36f6b85a87db191a31a5d49e8fadc',
    ('deamortized', 0.5, 1): '5dcdf04f8f7b22c338bee01f3b617c71782ac596d628f30811a0bade2d40fb59',
    ('deamortized', 0.5, 2): 'e017fa0b7389d02126f5ef82642297d18dbfc0712c6977585e6171284ff11a0b',
    ('deamortized', 0.5, 3): 'f1b36b74090af6a658e9d7eb829fb75ce773eb2b20569c464711053acea1a22c',
    ('deamortized', 0.5, 4): '700969475c8cf8e7b6777939ad26ee24cc9972a39f9d9db4f3f9a3051808200f',
    ('deamortized', 0.5, 5): '185ab314c321b520de49ba89154651ee4adedd607b7d8d90cfeb75c5f56b7ef6',
    ('deamortized', 0.5, 6): '21cf95bbf628da3e8cd7db0c53b55550d8a49ac0dc711efd87ae396d68360046',
}

CLASSES = {
    cls.name: cls
    for cls in (CostObliviousReallocator, CheckpointedReallocator, DeamortizedReallocator)
}


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda case: "-".join(map(str, case)))
def test_checkpointed_runs_are_byte_identical_to_the_pins(case):
    name, epsilon, seed = case
    assert _fingerprint(CLASSES[name], epsilon, seed) == PINS[case]


class _RequestRecorder:
    """Stands in for an allocator to capture ``random_churn``'s requests."""

    def __init__(self):
        self.requests = []

    def insert(self, name, size):
        self.requests.append(Request.insert(name, size))

    def delete(self, name):
        self.requests.append(Request.delete(name))


def _end_state(realloc):
    finish = getattr(realloc, "finish_pending_work", None)
    if finish is not None:
        finish()
    state = (dict(realloc.space.items()), vars(realloc.stats))
    translation = getattr(realloc, "translation", None)
    if translation is None:
        return state
    return state + (
        realloc.blocked_checkpoints,
        realloc.checkpoints.to_state(),
        {name: translation.durable_lookup(name) for name in translation._durable},
        {name: translation.lookup(name) for name in translation},
    )


@pytest.mark.parametrize("case", sorted(PINS), ids=lambda case: "-".join(map(str, case)))
def test_untraced_runs_end_like_the_pinned_traced_runs(case):
    name, epsilon, seed = case
    recorder = _RequestRecorder()
    random_churn(recorder, steps=STEPS, seed=seed, max_size=MAX_SIZE)
    traced = CLASSES[name](epsilon=epsilon, trace=True)
    random_churn(traced, steps=STEPS, seed=seed, max_size=MAX_SIZE)
    untraced = CLASSES[name](epsilon=epsilon)
    untraced.run(recorder.requests)
    assert not untraced.history and untraced.stats.requests == len(recorder.requests)
    assert _end_state(untraced) == _end_state(traced)
