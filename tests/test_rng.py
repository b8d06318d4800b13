import numpy as np
import pytest

from cv_arbiter import rng


def test_stream_reproducible_and_key_sensitive():
    a = rng.stream(1, "x", 100).random(8)
    b = rng.stream(1, "x", 100).random(8)
    c = rng.stream(1, "x", 101).random(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniforms_open_interval():
    u = rng.uniforms(rng.stream("u"), 200_000)
    assert np.all((u > 0.0) & (u < 1.0))
    assert abs(float(u.mean()) - 0.5) < 0.005


def test_normals_moments_and_shape():
    z = rng.normals(rng.stream("z"), (100, 50))
    assert z.shape == (100, 50)
    assert abs(float(z.mean())) < 0.05
    assert abs(float(z.std()) - 1.0) < 0.05
    assert np.all(np.isfinite(z))


def test_distinct_labels_give_unrelated_streams():
    z1 = rng.normals(rng.stream(3, "sample"), 1000)
    z2 = rng.normals(rng.stream(3, "splits"), 1000)
    assert abs(float(np.corrcoef(z1, z2)[0, 1])) < 0.1


@pytest.mark.parametrize("pre", [0, 1, 2, 3, 4, 5])
def test_seek_matches_sequential_draws(pre):
    words = rng.stream("seek").integers(0, 1 << 53, size=pre + 40)
    for draws in range(0, 33):
        gen = rng.stream("seek")
        gen.integers(0, 1 << 53, size=pre)
        moved = rng.seek(gen, draws)
        assert moved.integers(0, 1 << 53, size=4).tolist() == words[pre + draws : pre + draws + 4].tolist()
        assert gen.integers(0, 1 << 53) == words[pre]  # the source stream did not move


def test_seek_keeps_the_32_bit_carry():
    seq, gen = rng.stream("carry"), rng.stream("carry")
    seq.integers(0, 10)
    gen.integers(0, 10)  # draws one 64-bit word, keeps half of it for the next 32-bit draw
    seq.integers(0, 1 << 53, size=11)
    moved = rng.seek(gen, 11)
    assert moved.integers(0, 10, size=5).tolist() == seq.integers(0, 10, size=5).tolist()


def test_seek_rejects_negative_draws():
    with pytest.raises(ValueError):
        rng.seek(rng.stream("neg"), -1)
