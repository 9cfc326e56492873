import numpy as np
import pytest

from cornergraph import autodiff as ad


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


RNG = np.random.default_rng(20240)


def away_from_kink(shape, margin=1e-2):
    """Sample values bounded away from zero so ReLU-family kinks cannot sit
    inside the finite-difference window."""
    x = RNG.uniform(margin, 1.0, size=shape)
    return x * RNG.choice([-1.0, 1.0], size=shape)


def test_linear_gradient():
    w = RNG.normal(size=(3, 4))
    b = RNG.normal(size=3)
    x = RNG.normal(size=(2, 4))
    check_against_fd(
        lambda t: ad.sum_all(ad.linear(t[2], t[0], t[1])), [w, b, x]
    )
    check_against_fd(lambda t: ad.sum_all(ad.linear(t[1], t[0])), [w, x])


def test_matvec_gradient():
    w = RNG.normal(size=(2, 5))
    x = RNG.normal(size=5)
    check_against_fd(lambda t: ad.sum_all(ad.matvec(t[0], t[1])), [w, x])


def test_elementwise_gradients():
    a = RNG.normal(size=6)
    b = RNG.normal(size=6)
    check_against_fd(lambda t: ad.sum_all(ad.mul(ad.add(t[0], t[1]), t[1])), [a, b])
    check_against_fd(lambda t: ad.sum_all(ad.sub(t[0], ad.scale(t[1], 2.5))), [a, b])


def test_leaky_relu_gradient_away_from_kink():
    x = away_from_kink(8)
    check_against_fd(lambda t: ad.sum_all(ad.leaky_relu(t[0])), [x])


def test_elu_gradient_away_from_kink():
    x = away_from_kink(8)
    check_against_fd(lambda t: ad.sum_all(ad.elu(t[0])), [x])


def test_sigmoid_and_log_gradients():
    x = RNG.normal(size=5)
    check_against_fd(lambda t: ad.sum_all(ad.log(ad.sigmoid(t[0]))), [x])


def test_mean_all_gradient():
    x = RNG.normal(size=(3, 4))
    check_against_fd(lambda t: ad.mean_all(t[0]), [x])


def test_concat_routes_gradient_to_parts():
    a = RNG.normal(size=3)
    b = RNG.normal(size=2)
    check_against_fd(
        lambda t: ad.sum_all(ad.mul(ad.concat(t), ad.concat(t))), [a, b]
    )


def test_hstack_gradient():
    a = RNG.normal(size=(2, 3))
    b = RNG.normal(size=(2, 2))
    check_against_fd(
        lambda t: ad.sum_all(ad.mul(ad.hstack(t), ad.hstack(t))), [a, b]
    )


def test_gather_rows_gradient_accumulates_repeats():
    x = RNG.normal(size=(4, 3))
    idx = [0, 2, 2, 3]
    check_against_fd(
        lambda t: ad.sum_all(ad.mul(ad.gather_rows(t[0], idx), ad.gather_rows(t[0], idx))),
        [x],
    )


def test_segment_sum_gradient():
    x = RNG.normal(size=(5, 2))
    seg = [0, 0, 1, 2, 2]
    check_against_fd(
        lambda t: ad.sum_all(ad.mul(ad.segment_sum(t[0], seg, 3), ad.segment_sum(t[0], seg, 3))),
        [x],
    )


def test_scale_rows_gradient():
    x = RNG.normal(size=(4, 3))
    s = RNG.normal(size=4)
    check_against_fd(
        lambda t: ad.sum_all(ad.scale_rows(t[0], t[1])), [x, s]
    )


def test_grouped_softmax_gradient():
    v = RNG.normal(size=7)
    groups = [0, 0, 1, 1, 1, 2, 2]
    check_against_fd(
        lambda t: ad.sum_all(
            ad.mul(ad.grouped_softmax(t[0], groups), ad.constant(np.arange(7.0)))
        ),
        [v],
    )


def test_grouped_softmax_normalizes_per_group():
    v = ad.constant(RNG.normal(size=6))
    groups = [0, 0, 0, 1, 1, 2]
    with ad.Tape():
        w = ad.grouped_softmax(v, groups)
    assert w.data[:3].sum() == pytest.approx(1.0)
    assert w.data[3:5].sum() == pytest.approx(1.0)
    assert w.data[5] == pytest.approx(1.0)


def test_neighborhood_softmax_matches_numpy():
    pairs = [(0, 1.0), (0, 2.0), (1, -1.0), (1, 0.0), (1, 1.0)]
    out = dict()
    for gid, w in ad.neighborhood_softmax(pairs):
        out.setdefault(gid, []).append(w)
    e = np.exp([1.0, 2.0])
    np.testing.assert_allclose(out[0], e / e.sum())
    e = np.exp([-1.0, 0.0, 1.0])
    np.testing.assert_allclose(out[1], e / e.sum())


def test_gradient_accumulates_across_reuse():
    # y = x * x + x: dy/dx = 2x + 1, exercised through three tape records
    x = ad.Tensor(np.asarray([3.0]), requires_grad=True)
    with ad.Tape():
        loss = ad.sum_all(ad.add(ad.mul(x, x), x))
        ad.backward(loss)
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_sums_gradients_that_share_one_array():
    # add's backward hands one array to both parents, and u collects from two
    # adds: summing into that array in place once gave x.grad == [10.]
    x = ad.Tensor(np.asarray([1.0]), requires_grad=True)
    with ad.Tape():
        u = ad.scale(x, 2.0)
        v = ad.scale(x, 3.0)
        loss = ad.sum_all(ad.add(ad.add(u, v), u))
        ad.backward(loss)
    np.testing.assert_array_equal(x.grad, [7.0])


def test_backward_writes_grad_on_leaves_only():
    x = ad.Tensor(np.asarray([1.0, -2.0]), requires_grad=True)
    c = ad.constant(np.asarray([3.0, 4.0]))
    with ad.Tape():
        y = ad.mul(x, c)
        loss = ad.sum_all(ad.mul(y, y))
        ad.backward(loss)
    assert y.requires_grad and y.grad is None and loss.grad is None
    assert c.grad is None
    np.testing.assert_array_equal(x.grad, 2.0 * x.data * c.data**2)


def test_backward_accumulates_into_existing_grad():
    x = ad.Tensor(np.asarray([2.0]), requires_grad=True)
    for _ in range(2):
        with ad.Tape():
            ad.backward(ad.sum_all(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [8.0])
    x.zero_grad()
    assert x.grad is None


def test_ops_outside_tape_record_nothing():
    x = ad.Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    y = ad.sum_all(x)
    assert y.item() == pytest.approx(3.0)
    with pytest.raises(RuntimeError):
        ad.backward(y)


def test_nested_tapes_keep_records_separate():
    x = ad.Tensor(np.asarray([2.0]), requires_grad=True)
    with ad.Tape() as outer:
        a = ad.mul(x, x)
        with ad.Tape() as inner:
            b = ad.mul(x, x)
        assert len(inner.records) == 1
        assert len(outer.records) == 1
        inner.backward(b)
    np.testing.assert_allclose(x.grad, [4.0])
    assert a.requires_grad


def test_backward_rejects_non_scalar():
    x = ad.Tensor(np.asarray([1.0, 2.0]), requires_grad=True)
    with ad.Tape():
        y = ad.mul(x, x)
        with pytest.raises(ad.NotScalar):
            ad.backward(y)


def test_shape_mismatch_raises():
    a = ad.constant(np.zeros(3))
    b = ad.constant(np.zeros(4))
    with pytest.raises(ad.ShapeMismatch):
        ad.add(a, b)
