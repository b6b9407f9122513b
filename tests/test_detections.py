"""Detection embedding, movement features, and the composed pair input."""

import numpy as np
import pytest

from uncertrack.affinity import movement_features, pair_features
from uncertrack.detections import Detection, FrameArrays, embed_frame
from uncertrack.model import ModelConfig, init_model
from uncertrack.numerics import Tape, mlp_forward
from uncertrack.world import NoiseConfig, corrupt_to_detections, generate_world

from oracles import fd_gradient, float64_copy, frame_columns_loop, rel_err


def _det(pos=(0.0, 0.0), velo=(1.0, 0.5), size=(4.2, 1.8, 1.5),
         heading=0.3, score=0.8):
    return Detection(pos=pos, velo=velo, size=size, heading=heading,
                     score=score)


def _frame(*positions):
    return FrameArrays.from_detections([_det(pos=p) for p in positions])


def _pair_input(params, prev_pos, curr_positions):
    """Pair input x of one previous detection against each current one."""
    tape = Tape()
    prev, curr = _frame(prev_pos), _frame(*curr_positions)
    pairs = np.array([[0, n] for n in range(len(curr))])
    hidden = params.config.hidden_dim
    x, _, _ = pair_features(
        tape, params, embed_frame(tape, params, prev),
        embed_frame(tape, params, curr),
        movement_features(tape, params, prev.pos, curr.pos, pairs),
        tape.const(np.zeros((1, hidden))), pairs)
    return x.value


@pytest.fixture(scope="module")
def params():
    return init_model(ModelConfig(), seed=12)


def test_embedding_ignores_position(params):
    a = embed_frame(Tape(), params, _frame((0.0, 0.0)))
    b = embed_frame(Tape(), params, _frame((123.4, -55.0)))
    assert np.array_equal(a.value, b.value)
    assert a.value.shape == (1, 64)


def test_zero_weights_give_zero_embedding(params):
    zeroed = init_model(ModelConfig(), seed=12)
    for block in zeroed.blocks():
        for w in block.weights:
            w[...] = 0.0
    out = embed_frame(Tape(), zeroed, _frame((0.0, 0.0)))
    assert np.array_equal(out.value, np.zeros((1, 64)))


def test_embedding_gradient_wrt_fusion_weights(params):
    params = float64_copy(params)
    frame = _frame((0.0, 0.0))

    def forward():
        tape = Tape()
        return tape, tape.sum(embed_frame(tape, params, frame))

    params.zero_grads()
    tape, loss = forward()
    tape.backward(loss)
    analytic = params.mlp_fus.block.grads[0].copy()

    def value():
        return float(forward()[1].value[0, 0])

    fd = fd_gradient(value, params.mlp_fus.block.weights[0])
    assert rel_err(analytic, fd) < 1e-4
    params.zero_grads()


def test_movement_zero_offset(params):
    x = _pair_input(params, (3.0, 4.0), [(3.0, 4.0)])
    tape = Tape()
    zero_in = tape.const(np.zeros((1, 2)))
    want = mlp_forward(tape, params.mlp_mov, zero_in).value
    assert np.array_equal(x[:, 64:], want)


def test_movement_translation_invariance(params):
    a = _pair_input(params, (1.0, 2.0), [(2.5, 1.0)])
    b = _pair_input(params, (6.0, 7.0), [(7.5, 6.0)])
    assert np.array_equal(a[:, 64:], b[:, 64:])


def test_movement_distinct_offsets_distinct_features(params):
    x = _pair_input(params, (0.0, 0.0), [(1.0, 0.0), (0.0, 1.0)])
    assert not np.array_equal(x[0, 64:], x[1, 64:])


def test_compose_concatenates_and_round_trips(params):
    x = _pair_input(params, (0.0, 0.0), [(0.4, -0.2)])
    tape = Tape()
    x_det = embed_frame(tape, params, _frame((0.4, -0.2))).value
    x_mov = mlp_forward(tape, params.mlp_mov, np.array([[0.4, -0.2]])).value
    assert x.shape == (1, 96)
    assert np.array_equal(x[:, :64], x_det)
    assert np.array_equal(x[:, 64:], x_mov)


def test_scene_translation_invariance_many_cases(params):
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        frame = FrameArrays(pos=rng.uniform(-20, 20, (n, 2)),
                            velo=rng.uniform(-5, 5, (n, 2)),
                            size=rng.uniform(1, 5, (n, 3)),
                            heading=rng.uniform(-np.pi, np.pi, n),
                            score=rng.uniform(0.1, 0.9, n))
        shift = rng.uniform(-50, 50, 2)
        shifted = FrameArrays(pos=frame.pos + shift, velo=frame.velo,
                              size=frame.size, heading=frame.heading,
                              score=frame.score)
        a = embed_frame(Tape(), params, frame).value
        b = embed_frame(Tape(), params, shifted).value
        assert np.array_equal(a, b)


def _columns(frame):
    return frame.pos, frame.velo, frame.size, frame.heading, frame.score


def test_from_detections_matches_the_row_loop():
    # and it inverts iterating a frame: a stored frame's rows, an empty
    # frame's included, convert back to that frame bit for bit
    log = corrupt_to_detections(generate_world(24, 60, seed=3), NoiseConfig(),
                                seed=3)
    empty = corrupt_to_detections(generate_world(2, 60, seed=3),
                                  NoiseConfig(miss_rate=1.0, fp_rate=0.0),
                                  seed=3).frames[0]
    odd = [_det(pos=(-0.0, 3), velo=(0, -0.0), size=(4, 2, 1.5), heading=-0.0)]
    for dets in log.frames + [empty, odd, []]:
        rows = list(dets)
        frame = FrameArrays.from_detections(rows)
        wants = [frame_columns_loop(rows)]
        if isinstance(dets, FrameArrays):
            assert all(type(v) is float for d in rows
                       for v in (*d.pos, *d.velo, *d.size, d.heading, d.score))
            wants.append(_columns(dets))
        for want in wants:
            for g, w in zip(_columns(frame), want, strict=True):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes()
