"""Binary weight container round trips."""

import numpy as np
import pytest

from uncertrack.numerics import (NumericsError, load_weights, make_block,
                                 save_weights)
from uncertrack.numerics.serialize import MAGIC


def _blocks(seed=0):
    rng = np.random.default_rng(seed)
    return [make_block("alpha", [(3, 4), (1, 4)], rng),
            make_block("beta_gate", [(2, 2)], rng)]


def test_round_trip_bitwise(tmp_path):
    blocks = _blocks()
    path = tmp_path / "w.bin"
    save_weights(path, blocks)
    loaded = load_weights(path)
    assert [b.name for b in loaded] == ["alpha", "beta_gate"]
    for orig, back in zip(blocks, loaded):
        assert len(orig.weights) == len(back.weights)
        for a, b in zip(orig.weights, back.weights):
            assert np.array_equal(a, b)
        assert all(np.all(m == 0.0) for m in back.adam_m)


def test_file_layout_starts_with_magic(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, _blocks())
    assert path.read_bytes()[: len(MAGIC)] == MAGIC


def test_save_is_byte_stable(tmp_path):
    blocks = _blocks(3)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_weights(p1, blocks)
    save_weights(p2, blocks)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.bin"
    path.write_bytes(b"NOTAWEIGHTFILE")
    with pytest.raises(NumericsError, match="magic"):
        load_weights(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "w.bin"
    save_weights(path, _blocks())
    data = path.read_bytes()
    path.write_bytes(data[:-9])
    with pytest.raises(NumericsError, match="truncated"):
        load_weights(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_tensor_rejected(tmp_path, bad):
    blocks = _blocks()
    blocks[1].weights[0][1, 0] = bad
    path = tmp_path / "w.bin"
    save_weights(path, blocks)
    with pytest.raises(NumericsError,
                       match=r"w\.bin: block 'beta_gate' tensor 0 holds a "
                             r"non-finite value"):
        load_weights(path)
