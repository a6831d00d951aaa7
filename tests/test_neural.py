"""MLP forward pass, manual backprop, ADAM, and checkpointing."""
import numpy as np
import pytest

from infbsde import (AdamState, Mlp, RngStream, adam_step, load_checkpoint,
                     save_checkpoint)


def loss_grad(net, x, target_u, target_ubar):
    """The MSE loss and its gradient: a ``net.gradient()``, whose ``flat``
    vector is what ``adam_step`` takes and ``parts`` its per-parameter
    views."""
    grad = net.gradient()
    loss, _ = net._mse_grad(x, net._raw_target(len(x), target_u, target_ubar),
                            net.workspace(len(x)), grad)
    return loss, grad


def hand_net():
    # one ReLU layer of width 2, output width 2 = (u, ubar) for d = d' = 1
    w0 = np.array([[1.0, -1.0]])
    b0 = np.array([0.5, 0.5])
    w1 = np.array([[1.0, 2.0], [3.0, 4.0]])
    b1 = np.array([0.1, -0.2])
    return Mlp(1, 1, [w0, w1], [b0, b1])


class TestForward:
    def test_hand_computed_values(self):
        net = hand_net()
        u, ubar = net(np.array([[1.0], [-1.0]]))
        np.testing.assert_allclose(u, [[1.6], [4.6]], atol=1e-15)
        np.testing.assert_allclose(ubar, [[[2.8]], [[5.8]]], atol=1e-15)

    def test_output_split_order(self):
        # linear net with zero weights: output is the bias, row-major split
        w = np.zeros((3, 8))
        b = np.arange(8.0)
        net = Mlp(3, 2, [w], [b])
        u, ubar = net(np.zeros((1, 3)))
        np.testing.assert_array_equal(u, [[0.0, 1.0]])
        np.testing.assert_array_equal(ubar,
                                      [[[2.0, 3.0, 4.0], [5.0, 6.0, 7.0]]])

    def test_init_shapes_and_bounds(self):
        net = Mlp.init(2, 1, (21, 22), RngStream(1))
        shapes = [w.shape for w in net.weights]
        assert shapes == [(2, 21), (21, 22), (22, 3)]
        assert all(np.all(b == 0) for b in net.biases)
        for w in net.weights:
            assert np.abs(w).max() <= np.sqrt(6.0 / w.shape[0])

    @pytest.mark.parametrize("bad", [4, np.random.default_rng(4)],
                             ids=["int", "generator"])
    def test_init_takes_only_a_stream(self, bad):
        with pytest.raises(TypeError):
            Mlp.init(2, 1, (5,), bad)

    def test_batch_matches_per_sample(self):
        net = Mlp.init(2, 1, (7,), RngStream(2))
        x = np.random.default_rng(3).normal(size=(10, 2))
        u, ubar = net(x)
        for i in range(10):
            ui, ubi = net(x[i: i + 1])
            np.testing.assert_allclose(ui[0], u[i], rtol=1e-14, atol=0)
            np.testing.assert_allclose(ubi[0], ubar[i], rtol=1e-14, atol=0)

    def test_copy_is_independent(self):
        net = Mlp.init(1, 1, (4,), RngStream(4))
        dup = net.copy()
        dup.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != dup.weights[0][0, 0]


class TestGradients:
    def test_perfect_fit_zero_loss_zero_grads(self):
        net = Mlp.init(2, 1, (6,), RngStream(5))
        x = np.random.default_rng(6).normal(size=(8, 2))
        tu, tub = net(x)
        loss, grad = loss_grad(net, x, tu, tub)
        assert loss == 0.0
        assert not grad.flat.any()

    def test_loss_scales_quadratically(self):
        net = Mlp.init(1, 1, (5,), RngStream(7))
        x = np.random.default_rng(8).normal(size=(16, 1))
        tu, tub = net(x)
        small = net.mse_loss(x, tu + 0.1, tub)
        large = net.mse_loss(x, tu + 0.2, tub)
        assert small == pytest.approx(0.01)
        assert large == pytest.approx(4 * small)

    @pytest.mark.parametrize("hidden,seed", [((3,), 10), ((8, 8), 11)])
    def test_gradient_matches_finite_difference(self, hidden, seed):
        net = Mlp.init(2, 1, hidden, RngStream(seed))
        gen = np.random.default_rng(seed + 100)
        x = gen.normal(size=(12, 2))
        tu = gen.normal(size=(12, 1))
        tub = gen.normal(size=(12, 1, 2))
        grads = loss_grad(net, x, tu, tub)[1].parts
        h = 1e-5
        params = net.parameters
        for _ in range(25):
            k = gen.integers(len(params))
            idx = tuple(gen.integers(s) for s in params[k].shape)
            orig = params[k][idx]
            params[k][idx] = orig + h
            up = net.mse_loss(x, tu, tub)
            params[k][idx] = orig - h
            dn = net.mse_loss(x, tu, tub)
            params[k][idx] = orig
            fd = (up - dn) / (2 * h)
            assert grads[k][idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_grad_count_matches_parameters(self):
        net = Mlp.init(1, 1, (4, 4), RngStream(12))
        _, grad = loss_grad(net, np.zeros((2, 1)), np.zeros((2, 1)),
                            np.zeros((2, 1, 1)))
        assert grad.flat.shape == net.flat.shape
        assert len(grad.parts) == len(net.parameters) == 6
        for g, p in zip(grad.parts, net.parameters):
            assert g.shape == p.shape
            assert np.shares_memory(g, grad.flat)


class TestAdam:
    def test_zero_gradient_is_noop(self):
        net = Mlp.init(1, 1, (4,), RngStream(13))
        before = [p.copy() for p in net.parameters]
        state = AdamState.init(net, 5e-4, 0.9, 1000)
        adam_step(net, np.zeros_like(net.flat), state)
        for b, p in zip(before, net.parameters):
            np.testing.assert_array_equal(b, p)
        assert state.step == 1

    def test_learning_rate_schedule(self):
        net = Mlp.init(1, 1, (2,), RngStream(14))
        state = AdamState.init(net, base_lr=5e-4, decay=0.9,
                               decay_period=1000)
        assert state.learning_rate == 5e-4
        state.step = 999
        assert state.learning_rate == 5e-4
        state.step = 1000
        assert state.learning_rate == pytest.approx(4.5e-4)
        state.step = 2500
        assert state.learning_rate == pytest.approx(5e-4 * 0.81)

    def test_mismatched_gradients_rejected(self):
        net = Mlp.init(1, 1, (2,), RngStream(15))
        state = AdamState.init(net, 5e-4, 0.9, 1000)
        with pytest.raises(ValueError):
            adam_step(net, np.zeros(2), state)
        with pytest.raises(ValueError):  # the per-parameter list
            adam_step(net, [np.zeros_like(p) for p in net.parameters], state)
        assert state.step == 0

    def test_training_reduces_loss_100x(self):
        x = np.linspace(-1, 1, 128)[:, None]
        tu = x**2
        tub = (2 * x)[:, :, None]
        net = Mlp.init(1, 1, (16,), RngStream(21))
        state = AdamState.init(net, 5e-3, 1.0, 1000)
        loss0 = net.mse_loss(x, tu, tub)
        for _ in range(500):
            adam_step(net, loss_grad(net, x, tu, tub)[1].flat, state)
        assert net.mse_loss(x, tu, tub) < loss0 / 100

    def test_training_is_deterministic(self):
        runs = []
        for _ in range(2):
            net = Mlp.init(1, 1, (8,), RngStream(16))
            state = AdamState.init(net, 5e-4, 0.9, 1000)
            x = np.linspace(-1, 1, 32)[:, None]
            for _ in range(50):
                _, grad = loss_grad(net, x, np.sin(x), np.cos(x)[:, :, None])
                adam_step(net, grad.flat, state)
            runs.append([p.copy() for p in net.parameters])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)


class TestCheckpoint:
    def test_round_trip_without_state(self, tmp_path):
        net = Mlp.init(3, 2, (5, 4), RngStream(17))
        path = tmp_path / "net.npz"
        save_checkpoint(path, net)
        with np.load(path) as data:
            assert sorted(data.files) == ["b0", "b1", "b2", "dims",
                                          "w0", "w1", "w2"]
        back = load_checkpoint(path)
        assert (back.dim_x, back.dim_y) == (3, 2)
        for a, b in zip(net.parameters, back.parameters):
            np.testing.assert_array_equal(a, b)

    def test_old_optimiser_keys_are_ignored(self, tmp_path):
        # files from before weights-only checkpoints also hold ADAM's
        # settings and per-parameter moments
        net = Mlp.init(1, 1, (6,), RngStream(18))
        save_checkpoint(tmp_path / "net.npz", net)
        with np.load(tmp_path / "net.npz") as data:
            payload = dict(data)
        payload["adam_meta"] = np.array([9, 1e-3, 0.8, 77, 0.9, 0.999, 1e-8])
        for k, p in enumerate(net.parameters):
            payload[f"m{k}"] = np.full_like(p, 0.25)
            payload[f"v{k}"] = np.full_like(p, 0.5)
        np.savez(tmp_path / "old.npz", **payload)
        old = load_checkpoint(tmp_path / "old.npz")
        new = load_checkpoint(tmp_path / "net.npz")
        assert (old.dim_x, old.dim_y) == (new.dim_x, new.dim_y)
        assert old.flat.tobytes() == new.flat.tobytes() == net.flat.tobytes()
        assert [p.shape for p in old.parameters] == [p.shape for p in
                                                     new.parameters]
