import numpy as np
import pytest

from cornergraph import autodiff as ad
from cornergraph.model import (
    ModelParams,
    _elu,
    _mlp,
    _probabilities,
    _triple_input,
    attend,
    forward,
)
from cornergraph.scenarios import ScenarioTemplate, generate, to_instances
from cornergraph.training import bce_loss


def central_difference(fn, arrays, step=1e-5):
    """Numerical gradient of a scalar-valued fn with respect to each array,
    each entry perturbed in place and restored."""
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + step
            hi = fn()
            flat[j] = saved - step
            lo = fn()
            flat[j] = saved
            gflat[j] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def block_gradients(block, arrays, weights):
    """The block's backward of ``weights``, one gradient per input array."""
    grads = block(*arrays)[1](weights)
    return grads if isinstance(grads, tuple) else (grads,)


def check_against_fd(block, arrays, seed=0, rtol=1e-6, atol=1e-8):
    """A block's backward against central differences of its output dotted
    with a random weight array, for every input."""
    weights = np.random.default_rng(seed).normal(size=block(*arrays)[0].shape)
    analytic = block_gradients(block, arrays, weights)
    assert len(analytic) == len(arrays)
    numeric = central_difference(lambda: float((block(*arrays)[0] * weights).sum()), arrays)
    for got, want in zip(analytic, numeric):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


RNG = np.random.default_rng(20240)


def away_from_kink(shape, margin=1e-2):
    """Sample values bounded away from zero so ReLU-family kinks cannot sit
    inside the finite-difference window."""
    x = RNG.uniform(margin, 1.0, size=shape)
    return x * RNG.choice([-1.0, 1.0], size=shape)


# --- the blocks' backwards ---------------------------------------------------

# five nodes; node 4 is isolated, node 1 receives from node 0 twice, and
# nodes 0 to 3 are all destinations of cross edges
DST = np.array([0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 4])
SRC = np.array([0, 2, 0, 0, 1, 1, 2, 0, 2, 3, 4])
HEADS = np.array([0, 0, 1, 3, 2, 0])
TAILS = np.array([1, 3, 0, 0, 0, 2])


def _blocks(arrays, prefix="blk"):
    # Tensor shares a float64 array, so perturbing the array moves the weight
    return {f"{prefix}.{k}": ad.Tensor(a) for k, a in zip(("w1", "b1", "w2", "b2"), arrays)}


def _attend(h, p, theta, theta_p, att):
    return attend(h, DST, SRC, p, theta, theta_p, att)


BLOCKS = {
    "mlp": (
        lambda x, *weights: _mlp(_blocks(weights), "blk", x),
        [(5, 3), (4, 3), (4,), (2, 4), (2,)],
    ),
    "attend": (_attend, [(5, 2), (DST.size, 1), (3, 2), (3, 1), (9,)]),
    "triple_input": (
        lambda h2, p_kg: _triple_input(h2, p_kg, HEADS, TAILS),
        [(5, 1), (HEADS.size, 1)],
    ),
    "probabilities": (_probabilities, [(HEADS.size, 1)]),
}


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_fused_op_gradients_match_central_differences(name):
    block, shapes = BLOCKS[name]
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=shape) for shape in shapes]
    if name == "attend":
        h, p, theta, theta_p, att = arrays
        z = h @ theta.T
        stacked = np.concatenate([z[DST], z[SRC], p @ theta_p.T], axis=1)
        # the leaky rectifier's kink stays outside the difference window
        assert np.abs(stacked @ att).min() > 1e-3
    check_against_fd(block, arrays, seed=6)


def _attend_inputs(seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=shape) for shape in BLOCKS["attend"][1]]


def test_leaky_relu_gradient_away_from_kink():
    # the attention vector sees the rectifier's slope on both sides of zero
    arrays = _attend_inputs(7)
    h, p, theta, theta_p, att = arrays
    z = h @ theta.T
    scores = np.concatenate([z[DST], z[SRC], p @ theta_p.T], axis=1) @ att
    assert (scores > 1e-3).any() and (scores < -1e-3).any()
    assert np.abs(scores).min() > 1e-3
    check_against_fd(_attend, arrays, seed=8)


def test_grouped_softmax_gradient():
    # edge encodings reach the output only through the per-destination
    # softmax of the scores; their gradients, and theta_p's, come from it
    arrays = _attend_inputs(9)
    weights = np.random.default_rng(10).normal(size=(5, 3))
    _, g_p, _, g_theta_p, _ = block_gradients(_attend, arrays, weights)
    loss = lambda: float((_attend(*arrays)[0] * weights).sum())  # noqa: E731
    want_p, want_theta_p = central_difference(loss, [arrays[1], arrays[3]])
    np.testing.assert_allclose(g_p, want_p, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(g_theta_p, want_theta_p, rtol=1e-6, atol=1e-8)


def _uniform_attention(seed):
    # a zero attention vector gives every incoming edge of a destination the
    # same weight, one over the destination's in-degree
    h, p, theta, theta_p, att = _attend_inputs(seed)
    alpha = 1.0 / np.bincount(DST, minlength=5)[DST]
    g = np.random.default_rng(seed + 1).normal(size=(5, 3))
    out, backward = _attend(h, p, theta, theta_p, np.zeros_like(att))
    return h, theta, alpha, g, out, backward(g)


def test_scale_rows_gradient():
    # each message is its source's transformed embedding scaled by its edge's
    # weight, so theta collects weight * outer(g[dst], h[src]) per edge
    h, theta, alpha, g, _, grads = _uniform_attention(12)
    want = np.zeros_like(theta)
    for d, s, a in zip(DST, SRC, alpha):
        want += a * np.outer(g[d], h[s])
    np.testing.assert_allclose(grads[2], want, rtol=1e-12, atol=1e-14)


def test_segment_sum_gradient():
    # messages sum per destination, and a source collects one gradient per
    # outgoing edge: node 0 sends to node 1 twice
    h, theta, alpha, g, out, grads = _uniform_attention(14)
    want_out = np.zeros((5, 3))
    want_grad = np.zeros_like(h)
    for d, s, a in zip(DST, SRC, alpha):
        want_out[d] += a * (theta @ h[s])
        want_grad[s] += a * (g[d] @ theta)
    np.testing.assert_allclose(out, want_out, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(grads[0], want_grad, rtol=1e-12, atol=1e-14)


def test_elu_gradient_away_from_kink():
    check_against_fd(_elu, [away_from_kink(8)])


def test_grouped_softmax_normalizes_per_group():
    # the weights of each destination's incoming edges sum to one: when every
    # node carries the same embedding, every node's output is that embedding
    rng = np.random.default_rng(11)
    h = np.tile(rng.normal(size=(1, 2)), (5, 1))
    theta = rng.normal(size=(3, 2))
    out, _ = attend(
        h, DST, SRC, rng.normal(size=(DST.size, 1)),
        theta, rng.normal(size=(3, 1)), rng.normal(size=9),
    )
    np.testing.assert_allclose(out, np.tile(h[0] @ theta.T, (5, 1)), rtol=1e-12)


def test_gather_rows_gradient_accumulates_repeats():
    # a node that heads or tails several candidates collects one gradient
    # per appearance; node 4 appears in none
    h2 = RNG.normal(size=(5, 1))
    p_kg = RNG.normal(size=(HEADS.size, 1))
    _, backward = _triple_input(h2, p_kg, HEADS, TAILS)
    g_h2, g_kg = backward(np.ones((HEADS.size, 3)))
    counts = np.bincount(HEADS, minlength=5) + np.bincount(TAILS, minlength=5)
    np.testing.assert_array_equal(g_h2, counts[:, None].astype(float))
    np.testing.assert_array_equal(g_kg, np.ones((HEADS.size, 1)))


def test_hstack_gradient():
    # the head, relation and tail columns route back to their own sources
    heads, tails = np.array([0, 1]), np.array([2, 3])
    _, backward = _triple_input(RNG.normal(size=(4, 1)), RNG.normal(size=(2, 1)), heads, tails)
    g_h2, g_kg = backward(np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]]))
    np.testing.assert_array_equal(g_h2, [[1.0], [10.0], [3.0], [30.0]])
    np.testing.assert_array_equal(g_kg, [[2.0], [20.0]])


def test_shape_mismatch_raises():
    weights = [np.zeros(s) for s in [(4, 3), (4,), (2, 4), (2,)]]
    with pytest.raises(ad.ShapeMismatch):
        _mlp(_blocks(weights), "blk", np.zeros((2, 4)))


# --- the tape over forward and the loss --------------------------------------


@pytest.fixture(scope="module")
def instance():
    scenario = generate(ScenarioTemplate.ONCOMING_CYCLIST_CUT_IN, 3, 1)[0]
    return to_instances(scenario)[0]


def _step(params, ext):
    with ad.Tape() as tape:
        loss = bce_loss(forward(params, ext), np.asarray(ext.labels(), dtype=float))
        tape.backward(loss)
    assert len(tape.records) == 2
    return loss


def test_backward_accumulates_into_existing_grad(tiny_dims, instance):
    # the first backward makes flat_grad when no zero_grad came before
    params = ModelParams.initialize(tiny_dims, seed=1)
    _step(params, instance)
    once = params.flat_grad.copy()
    assert np.any(once != 0.0)
    _step(params, instance)
    np.testing.assert_array_equal(params.flat_grad, 2.0 * once)
    params.zero_grad()
    assert not params.flat_grad.any()
    _step(params, instance)
    np.testing.assert_array_equal(params.flat_grad, once)


def test_ops_outside_tape_record_nothing(tiny_dims, instance):
    params = ModelParams.initialize(tiny_dims, seed=1)
    probs = forward(params, instance)
    labels = np.asarray(instance.labels(), dtype=float)
    with ad.Tape() as tape:
        loss = bce_loss(probs, labels)
    # only the loss recorded, so the backward ends at the probabilities
    assert len(tape.records) == 1
    g = tape.backward(loss)
    assert g.shape == probs.data.shape
    assert params.flat_grad is None


def test_backward_rejects_non_scalar(tiny_dims, instance):
    params = ModelParams.initialize(tiny_dims, seed=1)
    with ad.Tape() as tape:
        probs = forward(params, instance)
        with pytest.raises(ad.NotScalar):
            tape.backward(probs)
