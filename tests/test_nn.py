"""Network checks: parameter layout, forward pass, gradients, optimizers."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fednorm import config, nn


def small_spec():
    return nn.ModelSpec((3, 5, 2))


def loss_only(spec, params, x, y):
    value, _ = nn.loss_and_grad(spec, params, x, y)
    return value


def numerical_grad(spec, params, x, y, h=1e-6):
    """Central finite differences of the loss, coordinate by coordinate."""
    grad = np.zeros_like(params)
    for i in range(len(params)):
        up = params.copy()
        up[i] += h
        down = params.copy()
        down[i] -= h
        grad[i] = (loss_only(spec, up, x, y) - loss_only(spec, down, x, y)) / (2 * h)
    return grad


def relative_error(a, b):
    return np.max(np.abs(a - b) / np.maximum(1e-8, np.abs(a) + np.abs(b)))


# hand-set [2, 2, 2] net used by the forward/latent oracles below:
# W0 = identity, b0 = (0.5, -0.5), W1 = [[1, 2], [3, 4]], b1 = (0, 1)
HAND_PARAMS = np.array([1.0, 0.0, 0.0, 1.0, 0.5, -0.5, 1.0, 2.0, 3.0, 4.0, 0.0, 1.0])


class TestModelSpec:
    def test_param_count(self):
        # 4*128 + 128 + 128*3 + 3
        assert nn.ModelSpec((4, 128, 3)).param_count() == 1027

    def test_dimension_properties(self):
        spec = nn.ModelSpec((7, 32, 16, 5))
        assert spec.input_dim == 7
        assert spec.num_layers == 3

    def test_slices_tile_the_vector(self):
        sizes = (4, 9, 6, 3)
        spec = nn.ModelSpec(sizes)
        assert len(spec.layers) == len(sizes) - 1
        cursor = 0
        for l, (w, b, shape) in enumerate(spec.layers):
            fan_in, fan_out = sizes[l], sizes[l + 1]
            assert shape == (fan_in, fan_out)
            assert w.stop - w.start == fan_in * fan_out
            assert b.stop - b.start == fan_out
            assert w.start == cursor
            assert b.start == w.stop
            cursor = b.stop
        assert cursor == spec.param_count()

    def test_layer_span_covers_weight_and_bias(self):
        spec = nn.ModelSpec((4, 9, 3))
        span = spec.layer_span(1)
        w, b, _ = spec.layers[1]
        assert span.start == w.start and span.stop == b.stop

    def test_layer_span_counts_from_the_back_and_rejects_out_of_range(self):
        spec = nn.ModelSpec((4, 9, 3))
        assert spec.layer_span(-1) == spec.layer_span(1)
        assert spec.layer_span(-2) == spec.layer_span(0)
        for bad in (2, 7, -3):
            with pytest.raises(ValueError, match=f"layer {bad} is out of range"):
                spec.layer_span(bad)

    def test_rejects_too_few_layers(self):
        with pytest.raises(ValueError, match="at least one hidden"):
            nn.ModelSpec((4, 2))

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError, match="positive"):
            nn.ModelSpec((4, 0, 2))

    def test_rejects_non_integer_sizes(self):
        """int() would make 8.7 an 8-unit and True a 1-unit layer."""
        for bad in (8.7, 8.0, True, np.float64(8)):
            with pytest.raises(ValueError, match=re.escape(f"positive integers, got {bad!r}")):
                nn.ModelSpec((6, bad, 3))
        assert nn.ModelSpec((np.int64(6), np.int32(8), 3)).layer_sizes == (6, 8, 3)

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="activation"):
            nn.ModelSpec((4, 3, 2), activation="sigmoid")


class TestInitModel:
    def test_deterministic(self):
        spec = small_spec()
        assert_array_equal(nn.init_model(spec, 11), nn.init_model(spec, 11))

    def test_seeds_differ(self):
        spec = small_spec()
        assert not np.array_equal(nn.init_model(spec, 1), nn.init_model(spec, 2))

    def test_biases_zero_weights_bounded(self):
        spec = nn.ModelSpec((6, 10, 4, 3))
        params = nn.init_model(spec, 0)
        for w_sl, b_sl, (fan_in, fan_out) in spec.layers:
            assert_array_equal(params[b_sl], 0.0)
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(params[w_sl]).max() <= limit


class TestForward:
    def test_zero_params_zero_outputs(self):
        spec = small_spec()
        logits, latent = nn.forward(spec, np.zeros(spec.param_count()), np.ones((4, 3)))
        assert_array_equal(logits, 0.0)
        assert_array_equal(latent, 0.0)

    def test_hand_computed_relu_forward(self):
        spec = nn.ModelSpec((2, 2, 2))
        logits, latent = nn.forward(spec, HAND_PARAMS, [[1.0, 2.0], [-1.0, -1.0]])
        # first row: hidden = relu([1.5, 1.5]), logits = [6, 10]
        # second row: hidden = relu([-0.5, -1.5]) = 0, logits = bias = [0, 1]
        assert_array_equal(latent, [[1.5, 1.5], [0.0, 0.0]])
        assert_array_equal(logits, [[6.0, 10.0], [0.0, 1.0]])

    def test_hand_computed_tanh_forward(self):
        spec = nn.ModelSpec((2, 2, 2), activation="tanh")
        logits, latent = nn.forward(spec, HAND_PARAMS, [[1.0, 2.0]])
        h = np.tanh([1.5, 1.5])
        assert_allclose(latent, [h], rtol=0, atol=0)
        expected = [h[0] * 1.0 + h[1] * 3.0, h[0] * 2.0 + h[1] * 4.0 + 1.0]
        assert_allclose(logits, [expected], rtol=1e-15)

    def test_latent_shape(self):
        spec = nn.ModelSpec((6, 13, 4))
        params = nn.init_model(spec, 4)
        logits, latent = nn.forward(spec, params, np.random.default_rng(0).normal(size=(9, 6)))
        assert logits.shape == (9, 4)
        assert latent.shape == (9, 13)

    def test_rejects_wrong_input_dim(self):
        with pytest.raises(ValueError, match="shape"):
            nn.forward(small_spec(), np.zeros(small_spec().param_count()), np.ones((2, 4)))

    def test_rejects_wrong_param_length(self):
        with pytest.raises(ValueError, match="length"):
            nn.forward(small_spec(), np.zeros(3), np.ones((2, 3)))


class TestLossAndGrad:
    def test_uniform_model_loss_is_log_classcount(self):
        spec = nn.ModelSpec((4, 6, 5))
        x = np.random.default_rng(1).normal(size=(8, 4))
        y = np.arange(8) % 5
        loss = loss_only(spec, np.zeros(spec.param_count()), x, y)
        assert_allclose(loss, np.log(5.0), rtol=0, atol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        # the output-bias gradient is the batch mean of softmax(logits) - onehot,
        # so its entries sum to zero exactly when every softmax row sums to one;
        # logits in the hundreds also exercise the max shift
        spec = nn.ModelSpec((5, 8, 7))
        rng = np.random.default_rng(2)
        params = 10.0 * nn.init_model(spec, 2)
        x = rng.normal(scale=30.0, size=(40, 5))
        y = np.arange(40) % 7
        loss, grad = nn.loss_and_grad(spec, params, x, y)
        assert np.isfinite(loss)
        bias = spec.layers[-1].bias
        assert_allclose(grad[bias].sum(), 0.0, rtol=0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        spec = small_spec()
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = rng.normal(scale=0.7, size=spec.param_count())
            x = rng.normal(size=(4, 3))
            y = rng.integers(0, 2, size=4)
            _, grad = nn.loss_and_grad(spec, params, x, y)
            assert relative_error(grad, numerical_grad(spec, params, x, y)) < 1e-5

    def test_gradient_matches_with_tanh(self):
        spec = nn.ModelSpec((3, 5, 2), activation="tanh")
        rng = np.random.default_rng(5)
        params = rng.normal(scale=0.7, size=spec.param_count())
        x = rng.normal(size=(4, 3))
        y = rng.integers(0, 2, size=4)
        _, grad = nn.loss_and_grad(spec, params, x, y)
        assert relative_error(grad, numerical_grad(spec, params, x, y)) < 1e-5

    def test_out_buffer_receives_the_gradient(self):
        spec = nn.ModelSpec((3, 5, 4, 2), activation="tanh")
        rng = np.random.default_rng(8)
        params = rng.normal(size=spec.param_count())
        x = rng.normal(size=(6, 3))
        y = rng.integers(0, 2, size=6)
        loss, grad = nn.loss_and_grad(spec, params, x, y)
        buffer = np.full(spec.param_count(), np.nan)
        out_loss, out_grad = nn.loss_and_grad(spec, params, x, y, out=buffer)
        assert out_grad is buffer
        assert out_loss == loss
        assert_array_equal(buffer, grad)

    def test_rejects_misshapen_out_buffer(self):
        spec = small_spec()
        with pytest.raises(ValueError, match="gradient buffer"):
            nn.loss_and_grad(
                spec, np.zeros(spec.param_count()), np.ones((2, 3)), [0, 1],
                out=np.empty(spec.param_count() + 1),
            )

    def test_rejects_label_shape_mismatch(self):
        spec = small_spec()
        with pytest.raises(ValueError, match="labels"):
            nn.loss_and_grad(spec, np.zeros(spec.param_count()), np.ones((3, 3)), [0, 1])

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_loss_raises(self):
        spec = small_spec()
        params = np.full(spec.param_count(), 1e308)
        with pytest.raises(nn.TrainingDiverged):
            nn.loss_and_grad(spec, params, np.ones((2, 3)), [0, 1])


class TestOptimizers:
    def test_sgd_hand_step(self):
        params = np.array([1.0, -1.0])
        grad = np.array([2.0, 4.0])
        expected = params - 0.1 * grad  # computed first: the step updates params in place
        state = nn.OptimizerState(config.OptimizerSettings(kind="sgd", lr=0.1), len(params))
        nn.optimizer_step(params, grad, state)
        assert_array_equal(params, expected)
        assert state.step == 1

    def test_sgd_zero_grad_is_fixed_point(self):
        params = np.array([0.3, -0.7, 2.0])
        expected = params.copy()  # the step updates params in place
        state = nn.OptimizerState(config.OptimizerSettings(kind="sgd", lr=0.5), 3)
        nn.optimizer_step(params, np.zeros(3), state)
        assert_array_equal(params, expected)

    def test_adam_matches_scalar_recurrence(self):
        """Three steps against the textbook recurrence evaluated by hand."""
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        p = 0.5
        m = v = 0.0
        state = nn.OptimizerState(config.OptimizerSettings(kind="adam", lr=lr), 1)
        params = np.array([0.5])
        for t, g in enumerate([2.0, -1.0, 0.5], start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            nn.optimizer_step(params, np.array([g]), state)
            assert_allclose(params, [p], rtol=1e-15)
        assert state.step == 3

    def test_adam_first_step_magnitude_near_lr(self):
        params = np.zeros(4)
        grad = np.array([3.0, -2.0, 0.5, 10.0])
        state = nn.OptimizerState(config.OptimizerSettings(kind="adam", lr=1e-3), 4)
        nn.optimizer_step(params, grad, state)
        # first bias-corrected step is -lr * g/(|g| + eps), essentially -lr*sign(g)
        assert_allclose(params, -1e-3 * np.sign(grad), rtol=1e-7)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_step_updates_params_and_state_in_place(self, kind):
        params = np.ones(3)
        grad = np.full(3, 2.0)
        state = nn.OptimizerState(config.OptimizerSettings(kind=kind, lr=0.01), 3)
        assert nn.optimizer_step(params, grad, state) is None
        assert np.all(params < 1.0)
        assert_array_equal(grad, 2.0)
        assert state.step == 1
        buffers = [state.m, state.v, *state.scratch]
        nn.optimizer_step(params, grad, state)
        assert state.step == 2
        # the second step reuses every buffer the first one used
        for before, after in zip(buffers, [state.m, state.v, *state.scratch]):
            assert before is after
        if kind == "sgd":
            assert state.m is None and state.v is None

    def test_reset_clears_moments_in_the_same_buffers(self):
        state = nn.OptimizerState(config.OptimizerSettings(kind="adam", lr=0.01), 2)
        buffers = [state.m, state.v, *state.scratch]
        for _ in range(3):
            nn.optimizer_step(np.ones(2), np.ones(2), state)
        assert state.step == 3 and state.m.any() and state.v.any()
        state.reset()
        assert state.step == 0
        assert_array_equal(state.m, 0.0)
        assert_array_equal(state.v, 0.0)
        for before, after in zip(buffers, [state.m, state.v, *state.scratch]):
            assert before is after

    def test_rejects_unknown_kind(self):
        with pytest.raises(config.ConfigError, match=r"^kind must be one of \('sgd', 'adam'\)"):
            config.OptimizerSettings(kind="rmsprop")

    def test_rejects_nonpositive_lr(self):
        with pytest.raises(config.ConfigError, match=r"^lr must be positive, got 0\.0"):
            config.OptimizerSettings(kind="sgd", lr=0.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_raises(self):
        with pytest.raises(nn.TrainingDiverged):
            nn.optimizer_step(
                np.array([1e308]),
                np.array([-1e308]),
                nn.OptimizerState(config.OptimizerSettings(kind="sgd", lr=10.0), 1),
            )


def textbook_steps(kind, params, grads, lr):
    """Whole-vector sgd/adam over ``grads``: a new array for every operation."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = v = np.zeros_like(params)
    for t, g in enumerate(grads, start=1):
        if kind == "sgd":
            params = params - lr * g
        else:
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            params = params - lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)
    return params, m, v


# one element short of a block, exactly one, one past it, and two with a ragged third
BLOCK_SIZES = [nn.BLOCK - 1, nn.BLOCK, nn.BLOCK + 1, 2 * nn.BLOCK + 123]


class TestBlockedStep:
    """``optimizer_step`` walks the vector in ``BLOCK``-element blocks; every
    block, the ragged last one included, must get the whole-vector bits."""

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_matches_whole_vector_formulas_bitwise(self, kind, size):
        rng = np.random.default_rng(size)
        params = rng.normal(size=size)
        grads = [rng.normal(size=size) for _ in range(4)]
        expected, m, v = textbook_steps(kind, params, grads, lr=1e-2)
        state = nn.OptimizerState(config.OptimizerSettings(kind=kind, lr=1e-2), size)
        for g in grads:
            nn.optimizer_step(params, g, state)
        assert_array_equal(params, expected)
        if kind == "adam":
            assert_array_equal(state.m, m)
            assert_array_equal(state.v, v)
        assert {buf.shape for buf in state.scratch} == {(min(size, nn.BLOCK),)}

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(
        kind=st.sampled_from(["sgd", "adam"]),
        size=st.integers(1, 3 * nn.BLOCK),
        steps=st.integers(1, 5),
        lr=st.floats(1e-4, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_any_length_matches_whole_vector_formulas_bitwise(self, kind, size, steps, lr, seed):
        rng = np.random.default_rng(seed)
        params = rng.normal(size=size)
        grads = [rng.normal(scale=rng.uniform(0.01, 10.0), size=size) for _ in range(steps)]
        expected, _, _ = textbook_steps(kind, params, grads, lr)
        state = nn.OptimizerState(config.OptimizerSettings(kind=kind, lr=lr), size)
        for g in grads:
            nn.optimizer_step(params, g, state)
        assert_array_equal(params, expected)

    @pytest.mark.parametrize("kind", ["sgd", "adam"])
    def test_non_finite_value_in_the_ragged_last_block_raises(self, kind):
        size = 2 * nn.BLOCK + 123
        params = np.zeros(size)
        params[-1] = np.inf
        with pytest.raises(nn.TrainingDiverged, match="after step 1"):
            nn.optimizer_step(
                params, np.ones(size), nn.OptimizerState(config.OptimizerSettings(kind=kind), size)
            )


class TestMeanLatent:
    def test_single_sample_equals_latent_row(self):
        spec = nn.ModelSpec((6, 13, 4))
        params = nn.init_model(spec, 8)
        x = np.random.default_rng(9).normal(size=(1, 6))
        _, latent = nn.forward(spec, params, x)
        assert_array_equal(nn.mean_latent(spec, params, x), latent[0])

    def test_duplicated_rows_leave_mean_unchanged(self):
        spec = nn.ModelSpec((6, 13, 4))
        params = nn.init_model(spec, 10)
        x = np.random.default_rng(11).normal(size=(3, 6))
        doubled = np.vstack([x, x])
        # equality holds mathematically; fixed-order summation of the doubled
        # batch rounds differently, so allow rounding-level slack
        assert_allclose(
            nn.mean_latent(spec, params, doubled),
            nn.mean_latent(spec, params, x),
            rtol=1e-13,
            atol=1e-15,
        )

    def test_two_sample_hand_oracle(self):
        # latents of the two rows are [1.5, 1.5] and [0, 0]; mean = [0.75, 0.75]
        spec = nn.ModelSpec((2, 2, 2))
        z = nn.mean_latent(spec, HAND_PARAMS, [[1.0, 2.0], [-1.0, -1.0]])
        assert_array_equal(z, [0.75, 0.75])

    def test_empty_batch_rejected(self):
        spec = small_spec()
        with pytest.raises(ValueError, match="empty"):
            nn.mean_latent(spec, np.zeros(spec.param_count()), np.empty((0, 3)))


class TestTrainingDeterminism:
    def test_short_adam_loop_is_bitwise_reproducible(self):
        spec = small_spec()
        rng = np.random.default_rng(12)
        x = rng.normal(size=(16, 3))
        y = rng.integers(0, 2, size=16)

        def train():
            params = nn.init_model(spec, 13)
            state = nn.OptimizerState(config.OptimizerSettings(kind="adam", lr=1e-3), len(params))
            for _ in range(20):
                _, grad = nn.loss_and_grad(spec, params, x, y)
                nn.optimizer_step(params, grad, state)
            return params

        assert_array_equal(train(), train())
