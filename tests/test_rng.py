import hashlib
import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from reference import normal
from sftlab.rng import _LANE_CUTOVER, _NORMALS_CHUNK, Xoshiro256StarStar

SRC = Path(__file__).resolve().parent.parent / "src"


def test_same_seed_same_stream():
    a = Xoshiro256StarStar(1234)
    b = Xoshiro256StarStar(1234)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_different_seeds_differ():
    a = Xoshiro256StarStar(1)
    b = Xoshiro256StarStar(2)
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_seed_zero_produces_nonzero_state():
    rng = Xoshiro256StarStar(0)
    assert any(w != 0 for w in rng._s)
    assert rng.next_u64() != rng.next_u64()


def test_random_in_unit_interval():
    rng = Xoshiro256StarStar(7)
    draws = [rng.random() for _ in range(5000)]
    assert all(0.0 <= u < 1.0 for u in draws)
    assert abs(np.mean(draws) - 0.5) < 0.02


def test_normals_moments():
    rng = Xoshiro256StarStar(42)
    draws = np.array(rng.normals(8000))
    assert abs(draws.mean()) < 0.05
    assert abs(draws.std() - 1.0) < 0.05


def test_normals_equal_successive_normal_draws():
    """normals() reads words() in chunks and keeps the scalar deviate's
    math per element, so it holds the same bits and ends in the same state,
    on either side of the lane cut-over and of a chunk's end."""
    counts = [0, 1, _LANE_CUTOVER // 2 - 1, _LANE_CUTOVER // 2, _LANE_CUTOVER // 2 + 1,
              _NORMALS_CHUNK - 1, _NORMALS_CHUNK, _NORMALS_CHUNK + 1, 40_000]
    for seed, skip, count in itertools.product([0, 7, 1234], [0, 1001], counts):
        bulk, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
        bulk.words(skip), scalar.words(skip)
        draws = bulk.normals(count)
        assert draws.dtype == np.float64 and draws.shape == (count,)
        assert draws.tolist() == [normal(scalar) for _ in range(count)], (seed, skip, count)
        assert bulk.getstate() == scalar.getstate(), (seed, skip, count)


def test_normals_memory_is_bounded():
    """The deviates are made a chunk at a time, so the peak stays within a
    few times the output, not a Python float per deviate (about 20 MB)."""
    count = 200_000
    tracemalloc.start()
    try:
        Xoshiro256StarStar(5).normals(count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * count, peak


def test_randrange_bounds_and_coverage():
    rng = Xoshiro256StarStar(5)
    draws = [rng.randrange(7) for _ in range(2000)]
    assert set(draws) == set(range(7))
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_shuffle_is_permutation():
    rng = Xoshiro256StarStar(9)
    items = list(range(30))
    shuffled = items[:]
    rng.shuffle(shuffled)
    assert sorted(shuffled) == items
    assert shuffled != items  # astronomically unlikely to be identity


def test_sample_without_replacement():
    rng = Xoshiro256StarStar(11)
    picks = rng.sample(20, 8)
    assert len(picks) == 8
    assert len(set(picks)) == 8
    assert all(0 <= p < 20 for p in picks)
    assert sorted(rng.sample(5, 5)) == list(range(5))
    with pytest.raises(ValueError):
        rng.sample(3, 4)


def test_sample_deterministic():
    assert Xoshiro256StarStar(3).sample(100, 10) == Xoshiro256StarStar(3).sample(100, 10)


# Literal outputs of the recipe in the module docstring.  Every artifact's
# bytes depend on this stream, so any change to it must fail here, not only
# when two generators are compared with each other.
PINNED_WORDS = {
    0: [
        0x99EC5F36CB75F2B4, 0xBF6E1F784956452A, 0x1A5F849D4933E6E0, 0x6AA594F1262D2D2C,
        0xBBA5AD4A1F842E59, 0xFFEF8375D9EBCACA, 0x6C160DEED2F54C98, 0x8920AD648FC30A3F,
    ],
    1234: [
        0x0BAB45D9A0E3AE53, 0xD7C640660C19433E, 0xB0DEDAA0D09A6691, 0xDEC9F41B58EC86EB,
        0x19E4A6B7ACDA0AE0, 0xE4BC1C79FD36E5CB, 0x737261121DBF96E7, 0x33DC37AB08116070,
    ],
}


@pytest.mark.parametrize("seed", sorted(PINNED_WORDS))
def test_pinned_words(seed):
    rng = Xoshiro256StarStar(seed)
    assert [rng.next_u64() for _ in range(8)] == PINNED_WORDS[seed]


def test_pinned_sample_then_randrange():
    rng = Xoshiro256StarStar(3)
    assert rng.sample(20, 8) == [8, 19, 7, 4, 14, 2, 18, 11]
    assert [rng.randrange(7) for _ in range(5)] == [1, 6, 3, 4, 1]


@pytest.mark.parametrize("count", [0, 1, 255, 256, 257, _LANE_CUTOVER - 1, _LANE_CUTOVER,
                                   _LANE_CUTOVER + 1, 57600])
@pytest.mark.parametrize("seed", [0, 7, 1234])
@pytest.mark.parametrize("skip", [0, 1001])
def test_words_equal_successive_next_u64(seed, skip, count):
    # below the cut-over words() loops next_u64; above it the lanes must
    # draw the same bits and leave the same state, from any point of a stream
    bulk, scalar = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
    for _ in range(skip):
        bulk.next_u64(), scalar.next_u64()
    drawn = bulk.words(count)
    assert drawn.dtype == np.uint64 and drawn.shape == (count,)
    assert drawn.tolist() == [scalar.next_u64() for _ in range(count)]
    assert bulk.getstate() == scalar.getstate()
    assert bulk.next_u64() == scalar.next_u64()


def test_words_do_not_depend_on_blas_threads():
    """The lanes' jumps are integer XORs, so the words do not depend on
    the BLAS thread count (or on BLAS at all)."""
    child = ("import hashlib; from sftlab.rng import Xoshiro256StarStar; "
             "print(hashlib.sha256(Xoshiro256StarStar(3).words(57600).tobytes()).hexdigest())")
    digests = set()
    for threads in ("1", "2"):
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        digests.add(done.stdout.strip())
    scalar = Xoshiro256StarStar(3)
    want = np.array([scalar.next_u64() for _ in range(57600)], dtype=np.uint64)
    assert digests == {hashlib.sha256(want.tobytes()).hexdigest()}
