import numpy as np
import pytest

from calibkit.tinynn import (
    ADAM_EPS,
    MlpParams,
    adam_init,
    adam_step,
    backward_batch,
    forward_batch,
    init_mlp,
    zeros_like_params,
)
from oracles import grad_check


def hand_net():
    """2 -> 2 -> 1 network with fixed weights, small enough to trace by hand."""
    return MlpParams(
        weights=[np.array([[1.0, -1.0], [0.5, 2.0]]), np.array([[1.0], [-0.5]])],
        biases=[np.array([0.0, 1.0]), np.array([0.25])],
    )


def test_forward_hand_value():
    # x = [1, 2]: pre-act [2.0, 4.0], relu keeps both, out = 2.0 - 2.0 + 0.25
    out, _ = forward_batch(hand_net(), np.array([[1.0, 2.0]]))
    assert out[0] == pytest.approx(0.25)


def test_forward_relu_clips_negative_preactivation():
    # x = [-1, 0]: pre-act [-1.0, 2.0] -> [0, 2.0], out = -1.0 + 0.25
    out, _ = forward_batch(hand_net(), np.array([[-1.0, 0.0]]))
    assert out[0] == pytest.approx(-0.75)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(0)
    params = init_mlp([4, 3, 3, 1], np.random.default_rng(1))
    xs = rng.normal(size=(20, 4))
    outs, _ = forward_batch(params, xs)
    for i in range(20):
        single, _ = forward_batch(params, xs[i : i + 1])
        assert outs[i] == pytest.approx(single[0], abs=1e-12)


def test_forward_rejects_wrong_width():
    with pytest.raises(ValueError):
        forward_batch(init_mlp([4, 2, 1], np.random.default_rng(0)), np.zeros((3, 5)))


def test_init_mlp_shapes_and_determinism():
    a = init_mlp([10, 5, 5, 1], np.random.default_rng(7))
    b = init_mlp([10, 5, 5, 1], np.random.default_rng(7))
    assert a.widths == [10, 5, 5, 1]
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert all(np.all(bias == 0) for bias in a.biases)


def test_copy_is_independent():
    a = init_mlp([3, 2, 1], np.random.default_rng(2))
    c = MlpParams(a.weights, a.biases)
    c.weights[0][0, 0] += 1.0
    assert a.weights[0][0, 0] != c.weights[0][0, 0]


def test_check_finite():
    a = init_mlp([3, 2, 1], np.random.default_rng(3))
    assert a.check_finite()
    a.weights[1][0, 0] = np.nan
    assert not a.check_finite()


def sum_squared_loss(params, xs):
    """loss = mean(out^2); gradient via the batched backward pass."""
    outs, cache = forward_batch(params, xs)
    grads = backward_batch(params, cache, 2.0 * outs / xs.shape[0], out=zeros_like_params(params))
    return float((outs**2).mean()), grads


def test_gradcheck_random_networks():
    rng = np.random.default_rng(4)
    for widths in ([3, 1], [3, 4, 1], [5, 3, 2, 1], [2, 1, 1]):
        params = init_mlp(widths, rng=rng)
        for b in params.biases:
            b += rng.normal(scale=0.3, size=b.shape)
        xs = rng.normal(size=(16, widths[0]))
        report = grad_check(params, lambda p: sum_squared_loss(p, xs))
        assert report.max_rel_error < 1e-5
        assert report.num_checked == sum(w.size for w in params.weights) + sum(
            b.size for b in params.biases
        )


def test_gradcheck_flags_corrupted_gradient():
    """Negative control: a deliberately wrong gradient must not pass."""
    rng = np.random.default_rng(5)
    params = init_mlp([3, 3, 1], rng=rng)
    xs = rng.normal(size=(8, 3))

    def corrupted(p):
        loss, grads = sum_squared_loss(p, xs)
        grads.weights[0] = grads.weights[0] * 1.5 + 0.1
        return loss, grads

    assert grad_check(params, corrupted).max_rel_error > 1e-2


def test_adam_first_step_hand_value():
    # after one step the update reduces to lr * g / (|g| + eps)
    params = MlpParams(weights=[np.array([[1.0]])], biases=[np.array([0.5])])
    grads = MlpParams(weights=[np.array([[2.0]])], biases=[np.array([-3.0])])
    state = adam_init(params)
    lr = 0.1
    adam_step(params, grads, state, lr)
    assert params.weights[0][0, 0] == pytest.approx(1.0 - lr * 2.0 / (2.0 + ADAM_EPS))
    assert params.biases[0][0] == pytest.approx(0.5 + lr * 3.0 / (3.0 + ADAM_EPS))
    assert state.step == 1


def test_adam_two_steps_match_reference():
    """Second step against a direct transcription of the update equations."""
    params = MlpParams(weights=[np.array([[0.0]])], biases=[np.array([0.0])])
    state = adam_init(params)
    g1, g2 = 1.0, -2.0
    lr = 0.01
    adam_step(params, MlpParams([np.array([[g1]])], [np.array([0.0])]), state, lr)
    adam_step(params, MlpParams([np.array([[g2]])], [np.array([0.0])]), state, lr)

    m = v = 0.0
    p = 0.0
    for t, g in ((1, g1), (2, g2)):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        p -= lr * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert params.weights[0][0, 0] == pytest.approx(p, abs=1e-15)


def test_adam_descends_on_quadratic():
    rng = np.random.default_rng(8)
    params = init_mlp([2, 4, 1], rng=rng)
    xs = rng.normal(size=(32, 2))
    state = adam_init(params)
    first, _ = sum_squared_loss(params, xs)
    for _ in range(200):
        _, grads = sum_squared_loss(params, xs)
        adam_step(params, grads, state, 0.01)
    last, _ = sum_squared_loss(params, xs)
    assert last < first * 0.1


def test_zeros_like_params():
    params = init_mlp([3, 2, 1], np.random.default_rng(9))
    z = zeros_like_params(params)
    assert all(np.all(w == 0) for w in z.weights)
    assert [w.shape for w in z.weights] == [w.shape for w in params.weights]


def reference_adam_step(weights, biases, grads, state, lr):
    """The per-array Adam update that the flat adam_step replaced, kept as the
    bitwise reference: state holds per-array moment lists and the step."""
    state["step"] += 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    c1 = 1.0 - b1 ** state["step"]
    c2 = 1.0 - b2 ** state["step"]
    for i in range(len(weights)):
        for p, g, m, v in (
            (weights[i], grads.weights[i], state["m_w"][i], state["v_w"][i]),
            (biases[i], grads.biases[i], state["m_b"][i], state["v_b"][i]),
        ):
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def test_flat_adam_matches_per_array_reference_bitwise():
    rng = np.random.default_rng(10)
    params = init_mlp([10, 5, 5, 1], rng=rng)
    for b in params.biases:
        b += rng.normal(scale=0.3, size=b.shape)
    xs = rng.normal(size=(64, 10))
    ref_w = [w.copy() for w in params.weights]
    ref_b = [b.copy() for b in params.biases]
    ref_state = {
        "step": 0,
        "m_w": [np.zeros_like(w) for w in ref_w],
        "v_w": [np.zeros_like(w) for w in ref_w],
        "m_b": [np.zeros_like(b) for b in ref_b],
        "v_b": [np.zeros_like(b) for b in ref_b],
    }
    state = adam_init(params)
    for _ in range(200):
        _, grads = sum_squared_loss(params, xs)
        adam_step(params, grads, state, 0.01)
        reference_adam_step(ref_w, ref_b, grads, ref_state, 0.01)
        assert all(np.array_equal(a, b) for a, b in zip(params.weights, ref_w))
        assert all(np.array_equal(a, b) for a, b in zip(params.biases, ref_b))
    assert state.step == ref_state["step"] == 200
