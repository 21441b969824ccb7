import numpy as np
import pytest

from sftlab.rng import Xoshiro256StarStar


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
    # the array is filled one normal() at a time, so it holds the same bits
    a, b = Xoshiro256StarStar(9), Xoshiro256StarStar(9)
    draws = a.normals(257)
    assert draws.dtype == np.float64 and draws.shape == (257,)
    assert draws.tolist() == [b.normal() for _ in range(257)]
    assert a.getstate() == b.getstate()
    assert a.normals(0).shape == (0,)


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
