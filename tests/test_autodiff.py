import numpy as np
import pytest

from cornergraph import autodiff as ad
from cornergraph.model import _mlp, _probabilities, _triple_input, attend


def central_difference(fn, params, step=1e-5):
    """Numerical gradient of a scalar-valued fn of flat parameter arrays."""
    grads = []
    for i, p in enumerate(params):
        g = np.zeros_like(p)
        flat = p.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + step
            hi = fn(params)
            flat[j] = saved - step
            lo = fn(params)
            flat[j] = saved
            gflat[j] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def tape_gradients(build_loss, arrays):
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    with ad.Tape():
        loss = build_loss(tensors)
        ad.backward(loss)
    return [t.grad for t in tensors]


def check_against_fd(build_loss, arrays, rtol=1e-6, atol=1e-8):
    analytic = tape_gradients(build_loss, arrays)

    def numeric_fn(params):
        tensors = [ad.Tensor(p, requires_grad=False) for p in params]
        with ad.Tape():
            return build_loss(tensors).item()

    numeric = central_difference(numeric_fn, [a.copy() for a in arrays])
    for got, want in zip(analytic, numeric):
        np.testing.assert_allclose(got, want, rtol=rtol, atol=atol)


# --- ops built here, over ad.apply, to exercise the tape ------------------


def add(a, b):
    # hands one array to both parents
    return ad.apply((a, b), a.data + b.data, lambda g: (g, g))


def mul(a, b):
    return ad.apply((a, b), a.data * b.data, lambda g: (g * b.data, g * a.data))


def scale(a, c):
    return ad.apply((a,), a.data * c, lambda g: (g * c,))


def weighted_total(x, weights=None):
    """sum(x * weights) as a scalar; all weights 1 by default."""
    w = np.ones_like(x.data) if weights is None else weights
    return ad.apply((x,), np.asarray((x.data * w).sum()), lambda g: (g * w,))


RNG = np.random.default_rng(20240)


def away_from_kink(shape, margin=1e-2):
    """Sample values bounded away from zero so ReLU-family kinks cannot sit
    inside the finite-difference window."""
    x = RNG.uniform(margin, 1.0, size=shape)
    return x * RNG.choice([-1.0, 1.0], size=shape)


# --- the tape --------------------------------------------------------------


def test_gradient_accumulates_across_reuse():
    # y = x * x + x: dy/dx = 2x + 1, exercised through three tape records
    x = ad.Tensor(np.asarray([3.0]), requires_grad=True)
    with ad.Tape():
        loss = weighted_total(add(mul(x, x), x))
        ad.backward(loss)
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_sums_gradients_that_share_one_array():
    # add's backward hands one array to both parents, and u collects from two
    # adds: summing into that array in place once gave x.grad == [10.]
    x = ad.Tensor(np.asarray([1.0]), requires_grad=True)
    with ad.Tape():
        u = scale(x, 2.0)
        v = scale(x, 3.0)
        loss = weighted_total(add(add(u, v), u))
        ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [7.0])


def test_backward_writes_grad_on_leaves_only():
    x = ad.Tensor(np.asarray([1.0, -2.0]), requires_grad=True)
    c = ad.Tensor(np.asarray([3.0, 4.0]))
    with ad.Tape():
        y = mul(x, c)
        loss = weighted_total(mul(y, y))
        ad.backward(loss)
    assert y.requires_grad and y.grad is None and loss.grad is None
    assert c.grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * x.data * c.data**2)


def test_backward_accumulates_into_existing_grad():
    x = ad.Tensor(np.asarray([2.0]), requires_grad=True)
    for _ in range(2):
        with ad.Tape():
            ad.backward(weighted_total(mul(x, x)))
    np.testing.assert_allclose(x.grad, [8.0])


def test_ops_outside_tape_record_nothing():
    x = ad.Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    y = weighted_total(x)
    assert y.item() == pytest.approx(3.0)
    with pytest.raises(RuntimeError):
        ad.backward(y)


def test_nested_tapes_keep_records_separate():
    x = ad.Tensor(np.asarray([2.0]), requires_grad=True)
    with ad.Tape() as outer:
        a = mul(x, x)
        with ad.Tape() as inner:
            b = mul(x, x)
        assert len(inner.records) == 1
        assert len(outer.records) == 1
        inner.backward(b)
    np.testing.assert_allclose(x.grad, [4.0])
    assert a.requires_grad


def test_backward_rejects_non_scalar():
    x = ad.Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    with ad.Tape():
        y = mul(x, x)
        with pytest.raises(ad.NotScalar):
            ad.backward(y)


# --- the ops the model records ----------------------------------------------

# five nodes; node 4 is isolated, node 1 receives from node 0 twice, and
# nodes 0 to 3 are all destinations of cross edges
DST = np.array([0, 0, 1, 1, 1, 2, 2, 3, 3, 3, 4])
SRC = np.array([0, 2, 0, 0, 1, 1, 2, 0, 2, 3, 4])
HEADS = np.array([0, 0, 1, 3, 2, 0])
TAILS = np.array([1, 3, 0, 0, 0, 2])


def _blocks(tensors, prefix="blk"):
    return dict(zip((f"{prefix}.{k}" for k in ("w1", "b1", "w2", "b2")), tensors))


FUSED_OPS = {
    "mlp": (
        lambda x, *weights: _mlp(_blocks(weights), "blk", x),
        [(5, 3), (4, 3), (4,), (2, 4), (2,)],
    ),
    "attend": (
        lambda h, p, theta, theta_p, att: attend(h, DST, SRC, p, theta, theta_p, att),
        [(5, 2), (DST.size, 1), (3, 2), (3, 1), (9,)],
    ),
    "triple_input": (
        lambda h2, p_kg: _triple_input(h2, p_kg, HEADS, TAILS),
        [(5, 1), (HEADS.size, 1)],
    ),
    "probabilities": (_probabilities, [(HEADS.size, 1)]),
}


@pytest.mark.parametrize("name", sorted(FUSED_OPS))
def test_fused_op_gradients_match_central_differences(name):
    op, shapes = FUSED_OPS[name]
    rng = np.random.default_rng(5)
    arrays = [rng.normal(size=shape) for shape in shapes]
    if name == "attend":
        h, p, theta, theta_p, att = arrays
        z = h @ theta.T
        stacked = np.concatenate([z[DST], z[SRC], p @ theta_p.T], axis=1)
        # the leaky rectifier's kink stays outside the difference window
        assert np.abs(stacked @ att).min() > 1e-3
    weights = rng.normal(size=op(*(ad.Tensor(a) for a in arrays)).shape)
    check_against_fd(lambda t: weighted_total(op(*t), weights), arrays)


def _attend_inputs(seed):
    rng = np.random.default_rng(seed)
    shapes = FUSED_OPS["attend"][1]
    return [rng.normal(size=shape) for shape in shapes]


def _attend_wrt(index, arrays, weights):
    """A loss over attend whose only differentiated input is arrays[index]."""

    def build(tensors):
        inputs = [ad.Tensor(a) for a in arrays]
        inputs[index] = tensors[0]
        return weighted_total(attend(inputs[0], DST, SRC, *inputs[1:]), weights)

    return build


def test_leaky_relu_gradient_away_from_kink():
    # the attention vector sees the rectifier's slope on both sides of zero
    arrays = _attend_inputs(7)
    h, p, theta, theta_p, att = arrays
    z = h @ theta.T
    scores = np.concatenate([z[DST], z[SRC], p @ theta_p.T], axis=1) @ att
    assert (scores > 1e-3).any() and (scores < -1e-3).any()
    assert np.abs(scores).min() > 1e-3
    weights = np.random.default_rng(8).normal(size=(5, 3))
    check_against_fd(_attend_wrt(4, arrays, weights), [att])


def test_grouped_softmax_gradient():
    # edge encodings reach the output only through the per-destination
    # softmax of the scores
    arrays = _attend_inputs(9)
    weights = np.random.default_rng(10).normal(size=(5, 3))
    check_against_fd(_attend_wrt(1, arrays, weights), [arrays[1]])
    check_against_fd(_attend_wrt(3, arrays, weights), [arrays[3]])


def _uniform_attention(seed):
    # a zero attention vector gives every incoming edge of a destination the
    # same weight, one over the destination's in-degree
    h, p, theta, theta_p, att = _attend_inputs(seed)
    alpha = 1.0 / np.bincount(DST, minlength=5)[DST]
    g = np.random.default_rng(seed + 1).normal(size=(5, 3))
    tensors = [ad.Tensor(a, requires_grad=True) for a in (h, p, theta, theta_p, np.zeros_like(att))]
    with ad.Tape():
        out = attend(tensors[0], DST, SRC, *tensors[1:])
        ad.backward(weighted_total(out, g))
    return h, theta, alpha, g, out, tensors


def test_scale_rows_gradient():
    # each message is its source's transformed embedding scaled by its edge's
    # weight, so theta collects weight * outer(g[dst], h[src]) per edge
    h, theta, alpha, g, _, tensors = _uniform_attention(12)
    want = np.zeros_like(theta)
    for d, s, a in zip(DST, SRC, alpha):
        want += a * np.outer(g[d], h[s])
    np.testing.assert_allclose(tensors[2].grad, want, rtol=1e-12, atol=1e-14)


def test_segment_sum_gradient():
    # messages sum per destination, and a source collects one gradient per
    # outgoing edge: node 0 sends to node 1 twice
    h, theta, alpha, g, out, tensors = _uniform_attention(14)
    want_out = np.zeros((5, 3))
    want_grad = np.zeros_like(h)
    for d, s, a in zip(DST, SRC, alpha):
        want_out[d] += a * (theta @ h[s])
        want_grad[s] += a * (g[d] @ theta)
    np.testing.assert_allclose(out.data, want_out, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(tensors[0].grad, want_grad, rtol=1e-12, atol=1e-14)


def test_elu_gradient_away_from_kink():
    x = away_from_kink(8)
    check_against_fd(lambda t: weighted_total(ad.elu(t[0])), [x])


def test_grouped_softmax_normalizes_per_group():
    # the weights of each destination's incoming edges sum to one: when every
    # node carries the same embedding, every node's output is that embedding
    rng = np.random.default_rng(11)
    h = np.tile(rng.normal(size=(1, 2)), (5, 1))
    theta = rng.normal(size=(3, 2))
    out = attend(
        ad.Tensor(h), DST, SRC, ad.Tensor(rng.normal(size=(DST.size, 1))),
        ad.Tensor(theta), ad.Tensor(rng.normal(size=(3, 1))), ad.Tensor(rng.normal(size=9)),
    )
    np.testing.assert_allclose(out.data, np.tile(h[0] @ theta.T, (5, 1)), rtol=1e-12)


def test_gather_rows_gradient_accumulates_repeats():
    # a node that heads or tails several candidates collects one gradient
    # per appearance; node 4 appears in none
    h2 = ad.Tensor(RNG.normal(size=(5, 1)), requires_grad=True)
    p_kg = ad.Tensor(RNG.normal(size=(HEADS.size, 1)), requires_grad=True)
    with ad.Tape():
        ad.backward(weighted_total(_triple_input(h2, p_kg, HEADS, TAILS)))
    counts = np.bincount(HEADS, minlength=5) + np.bincount(TAILS, minlength=5)
    np.testing.assert_array_equal(h2.grad, counts[:, None].astype(float))
    np.testing.assert_array_equal(p_kg.grad, np.ones((HEADS.size, 1)))


def test_hstack_gradient():
    # the head, relation and tail columns route back to their own sources
    heads, tails = np.array([0, 1]), np.array([2, 3])
    h2 = ad.Tensor(RNG.normal(size=(4, 1)), requires_grad=True)
    p_kg = ad.Tensor(RNG.normal(size=(2, 1)), requires_grad=True)
    columns = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    with ad.Tape():
        ad.backward(weighted_total(_triple_input(h2, p_kg, heads, tails), columns))
    np.testing.assert_array_equal(h2.grad, [[1.0], [10.0], [3.0], [30.0]])
    np.testing.assert_array_equal(p_kg.grad, [[2.0], [20.0]])


def test_shape_mismatch_raises():
    x = ad.Tensor(np.zeros((2, 4)))
    weights = [ad.Tensor(np.zeros(s)) for s in [(4, 3), (4,), (2, 4), (2,)]]
    with pytest.raises(ad.ShapeMismatch):
        _mlp(_blocks(weights), "blk", x)
