import time

import numpy as np
import pytest

from occpoint import autodiff as ad
from occpoint.autodiff import Tensor
from occpoint.errors import InvalidInput, NumericalError
from occpoint.ssm import (
    S6Params,
    init_s6,
    scan_states_reference,
    selective_scan,
    selective_scan_reference,
    zoh_discretize,
    zoh_discretize_exact,
)

from composed import assert_grads_match, composed_scan, forward_and_grads


def constant_params(channels, n_state, b_bias, c_bias, dt_value, d_value=0.0):
    """S6 parameters with zero projections: B, C, delta are input-independent."""
    z = lambda *shape: Tensor(np.zeros(shape), requires_grad=True)
    dt_bias = np.full(channels, dt_value + np.log(-np.expm1(-dt_value)))
    return S6Params(
        a_log=Tensor(np.log(np.linspace(1.0, 4.0, n_state))[None, :].repeat(channels, 0),
                     requires_grad=True),
        b_weight=z(channels, n_state),
        b_bias=Tensor(np.full(n_state, b_bias), requires_grad=True),
        c_weight=z(channels, n_state),
        c_bias=Tensor(np.full(n_state, c_bias), requires_grad=True),
        dt_low=z(channels, 1),
        dt_up=z(1, channels),
        dt_bias=Tensor(dt_bias, requires_grad=True),
        d_skip=Tensor(np.full(channels, d_value), requires_grad=True),
    )


# --- discretization ---------------------------------------------------------


def test_zoh_analytic_half():
    abar, bbar = zoh_discretize(-1.0, 1.0, np.log(2.0))
    assert abs(abar - 0.5) < 1e-15
    assert abs(bbar - np.log(2.0)) < 1e-15


def test_zoh_small_dt_limit():
    abar, bbar = zoh_discretize(-3.0, 2.0, 1e-12)
    assert abs(abar - 1.0) < 1e-11
    assert abs(bbar) < 1e-11


def test_zoh_worked_example_and_exact_gap():
    abar, bbar = zoh_discretize(-2.0, 3.0, 0.5)
    assert abs(abar - np.exp(-1.0)) < 1e-15
    assert abs(bbar - 1.5) < 1e-15
    abar_e, bbar_e = zoh_discretize_exact(-2.0, 3.0, 0.5)
    assert abs(abar_e - abar) < 1e-15
    expected_exact = (np.exp(-1.0) - 1.0) / (-2.0) * 3.0
    assert abs(bbar_e - expected_exact) < 1e-15
    # the simplification overshoots the exact input weight for finite dt
    assert bbar > bbar_e


def test_zoh_rejects_bad_inputs():
    with pytest.raises(InvalidInput):
        zoh_discretize(-1.0, 1.0, 0.0)
    with pytest.raises(InvalidInput):
        zoh_discretize(0.5, 1.0, 0.1)


def test_zoh_elementwise():
    a = -np.array([1.0, 2.0, 3.0])
    abar, bbar = zoh_discretize(a, np.ones(3), 0.25)
    assert np.allclose(abar, np.exp(0.25 * a))
    assert np.allclose(bbar, 0.25)


# --- recurrence values -------------------------------------------------------


def test_hand_unrolled_impulse_response():
    # One channel, one state, abar=0.5, bbar=1, c=1, d=0; impulse input.
    dt = 1.0
    params = constant_params(1, 1, b_bias=1.0 / dt, c_bias=1.0, dt_value=dt)
    params.a_log.data[:] = np.log(-np.log(0.5) / dt)  # exp(dt*a) = 0.5
    x = np.array([[1.0], [0.0], [0.0]])
    y = selective_scan(x, params)
    assert np.allclose(y.ravel(), [1.0, 0.5, 0.25], atol=1e-12)
    y_ref = selective_scan_reference(x, params)
    assert np.allclose(y_ref.ravel(), [1.0, 0.5, 0.25], atol=1e-12)


def test_zero_input_zero_output():
    rng = np.random.default_rng(0)
    params = init_s6(6, 4, rng)
    y = selective_scan(np.zeros((20, 6)), params)
    assert np.allclose(y, 0.0, atol=1e-300)


def test_scan_matches_reference_randomized():
    rng = np.random.default_rng(1)
    for _ in range(30):
        length = int(rng.integers(1, 96))
        channels = int(rng.integers(1, 16))
        n_state = int(rng.integers(1, 10))
        params = init_s6(channels, n_state, rng)
        x = rng.normal(size=(length, channels))
        got = selective_scan(x, params)
        ref = selective_scan_reference(x, params)
        assert np.abs(got - ref).max() <= 1e-12


def test_scan_accepts_batched_input():
    rng = np.random.default_rng(2)
    params = init_s6(5, 3, rng)
    x = rng.normal(size=(4, 12, 5))
    y = selective_scan(x, params)
    assert y.shape == (4, 12, 5)
    for b in range(4):
        assert np.abs(y[b] - selective_scan(x[b], params)).max() < 1e-12


def test_scan_rejects_nonfinite_input():
    params = init_s6(3, 2, np.random.default_rng(3))
    x = np.zeros((4, 3))
    x[2, 1] = np.inf
    with pytest.raises(NumericalError):
        selective_scan(x, params)


def test_scan_wrong_width_rejected():
    params = init_s6(3, 2, np.random.default_rng(4))
    with pytest.raises(InvalidInput):
        selective_scan(np.zeros((4, 5)), params)


# --- S4-mode convolutional equivalence ---------------------------------------


def test_convolution_equivalence_input_independent_mode():
    # Input-independent B, C, delta and no skip: the scan must equal causal
    # convolution with kernel k_j[c] = sum_n C_n * exp(dt*a_cn)^j * dt * B_n.
    rng = np.random.default_rng(5)
    channels, n_state, length = 4, 3, 48
    params = constant_params(channels, n_state, b_bias=0.7, c_bias=0.9,
                             dt_value=0.05, d_value=0.0)
    params.a_log.data[:] = np.log(rng.uniform(1.0, 8.0, size=(channels, n_state)))

    x = rng.normal(size=(length, channels))
    y = selective_scan(x, params)

    a = -np.exp(params.a_log.data)
    dt = np.logaddexp(0.0, params.dt_bias.data)  # softplus of the bias
    steps = np.arange(length)
    y_conv = np.zeros_like(x)
    for c in range(channels):
        abar = np.exp(dt[c] * a[c])                       # (N,)
        kernel = ((abar[None, :] ** steps[:, None])
                  * (dt[c] * params.b_bias.data) * params.c_bias.data).sum(axis=1)
        full = np.convolve(x[:, c], kernel)
        y_conv[:, c] = full[:length]
    assert np.abs(y - y_conv).max() <= 1e-10


# --- stability ----------------------------------------------------------------


def test_stability_bound_constant_delta():
    rng = np.random.default_rng(6)
    channels, n_state = 5, 4
    params = constant_params(channels, n_state, b_bias=1.3, c_bias=1.0, dt_value=0.2)
    params.a_log.data[:] = np.log(rng.uniform(1.0, 16.0, size=(channels, n_state)))
    x = rng.uniform(-1.0, 1.0, size=(200, channels))
    states = scan_states_reference(x, params)

    a = -np.exp(params.a_log.data)
    dt = np.logaddexp(0.0, params.dt_bias.data)
    abar_max = np.exp(dt[:, None] * a).max()
    bbar_x_max = np.abs(dt[:, None] * params.b_bias.data[None, :]).max() * np.abs(x).max()
    bound = bbar_x_max / (1.0 - abar_max)
    assert np.abs(states).max() <= bound + 1e-12
    assert np.isfinite(states).all()


def test_bounded_input_bounded_output_random_params():
    rng = np.random.default_rng(7)
    params = init_s6(8, 6, rng)
    x = np.sin(np.linspace(0, 40, 400))[:, None].repeat(8, axis=1)
    y = selective_scan(x, params)
    assert np.isfinite(y).all()
    assert np.abs(y).max() < 1e4


# --- performance contract ------------------------------------------------------


def test_linear_time_scaling():
    rng = np.random.default_rng(8)
    params = init_s6(32, 8, rng)

    def median_time(length, runs=9):
        x = rng.normal(size=(length, 32))
        with ad.no_grad():
            selective_scan(x, params)  # warm
            times = []
            for _ in range(runs):
                t0 = time.perf_counter()
                selective_scan(x, params)
                times.append(time.perf_counter() - t0)
        return np.median(times)

    # One retry absorbs scheduler interference on busy machines.
    ratios = []
    for _ in range(2):
        ratios.append(median_time(1024) / median_time(512))
        if ratios[-1] <= 2.5:
            break
    assert min(ratios) <= 2.5


# --- gradients -----------------------------------------------------------------


def test_scan_gradients_match_finite_differences():
    from occpoint.training import grad_check

    assert grad_check("selective_scan", seed=11) <= 1e-4


def random_s6(rng, channels, n_state):
    params = init_s6(channels, n_state, rng)
    for t in params.tensors().values():
        t.data = t.data + 0.3 * rng.normal(size=t.shape)
    return params


def test_scan_gradients_match_composed_projections():
    rng = np.random.default_rng(40)
    for shape in ((2, 12, 5), (1, 40, 8), (3, 7, 3)):
        params = random_s6(rng, shape[-1], 4)
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        tensors = {"input": x, **params.tensors()}
        (got, got_grads), (want, want_grads) = (
            forward_and_grads(lambda: fn(x, params), tensors)
            for fn in (selective_scan, composed_scan)
        )
        assert np.array_equal(got, want)
        assert_grads_match(got_grads, want_grads)


def test_stream_stacked_scan_matches_each_stream_alone():
    rng = np.random.default_rng(41)
    streams = (random_s6(rng, 6, 3), random_s6(rng, 6, 3))
    x = rng.normal(size=(2, 3, 10, 6))
    y, adjoint = selective_scan(x, streams)
    with ad.no_grad():
        bare, no_adjoint = selective_scan(x, streams)
    assert no_adjoint is None and np.array_equal(bare, y)
    gy = rng.normal(size=y.shape)
    gx, grads = adjoint(gy)
    for z, params in enumerate(streams):
        xt = Tensor(x[z], requires_grad=True)
        tensors = {"input": xt, **params.tensors()}
        for t in tensors.values():
            t.zero_grad()
        alone = selective_scan(xt, params)
        ad.tensor_sum(ad.mul(alone, Tensor(gy[z]))).backward()
        assert np.array_equal(alone.data, y[z])
        assert_grads_match({"input": gx[z], **grads[z]},
                           {name: t.grad for name, t in tensors.items()})
