"""``tools/stream_digest.py``: every seed's ``run`` output, pinned as one hash."""

import importlib.util
import os
import time

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "stream_digest.py")
_spec = importlib.util.spec_from_file_location("stream_digest", TOOL)
stream_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stream_digest)

# printed by the engine that stepped each generation through the separate
# pool, swap and replacement rules; a change here is a change of some seed's run
DIGEST = "9ca8f0bbd7e6799962700619ecc1d09a3af539c9ac759ac17403f2a4b622f854"


def test_the_digest_of_every_seeds_run_is_unchanged():
    start = time.perf_counter()
    assert stream_digest.digest() == DIGEST
    assert time.perf_counter() - start < 2.0


def test_the_shapes_cover_both_draws_and_both_fitness_kinds():
    from bitswap_ea.engine import LEMIRE_MAX_LAMBDA

    lams = {lam for _, _, _, _, lam, _ in stream_digest.SHAPES}
    assert min(lams) <= LEMIRE_MAX_LAMBDA < max(lams)
    assert {kind for kind, *_ in stream_digest.SHAPES} == {"onemax", "plateau_royal_road"}
    assert {cap is None for *_, cap in stream_digest.SHAPES} == {True, False}
