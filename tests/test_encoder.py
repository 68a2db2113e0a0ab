import numpy as np
import pytest

from occpoint import autodiff as ad
from occpoint.autodiff import Tensor
from occpoint.curves import CurveKind, sort_by_curve
from occpoint.encoder import (
    EncoderConfig,
    attention_equivalent_flops,
    block_forward,
    compute_permutations,
    count_flops,
    count_params,
    count_params_enumerated,
    desk_config,
    encoder_forward,
    init_block,
    init_encoder,
    full_scale_config,
    named_parameters,
    toy_config,
)
from occpoint.errors import InvalidConfig, ShapeError
from occpoint.ssm import selective_scan_reference
from occpoint.tokenizer import TokenSequence

from composed import assert_grads_match, composed_block_forward, forward_and_grads

# The transcription oracle below restates the block as literal numpy, one
# line per equation, independent of the tape implementation.


def silu(x):
    return x / (1.0 + np.exp(-x))


def conv1d_same(x, kernel, bias, causal):
    s, c = x.shape
    w = kernel.shape[1]
    pad_left = w - 1 if causal else (w - 1) // 2
    xp = np.zeros((s + w - 1, c))
    xp[pad_left : pad_left + s] = x
    out = np.zeros_like(x)
    for j in range(w):
        out += xp[j : j + s] * kernel[:, j]
    return out + bias


def block_oracle(z_prev, perm_h, perm_t, p, config):
    mu = z_prev.mean(-1, keepdims=True)
    var = ((z_prev - mu) ** 2).mean(-1, keepdims=True)
    z_in = (z_prev - mu) / np.sqrt(var + 1e-5) * p.norm_gain.data + p.norm_bias.data
    gate = silu(z_in @ p.gate_w.data + p.gate_b.data)

    h_sorted = (z_in @ p.branch_h_w.data + p.branch_h_b.data)[perm_h.forward]
    if config.conv_mode != "none":
        h_sorted = conv1d_same(h_sorted, p.conv_h_kernel.data, p.conv_h_bias.data,
                               config.conv_mode == "causal")
    h_scanned = selective_scan_reference(silu(h_sorted), p.s6_h)
    h_stream = h_scanned[perm_h.inverse] * gate

    t_sorted = (z_in @ p.branch_t_w.data + p.branch_t_b.data)[perm_t.forward]
    if config.conv_mode != "none":
        t_sorted = conv1d_same(t_sorted, p.conv_t_kernel.data, p.conv_t_bias.data,
                               config.conv_mode == "causal")
    t_scanned = selective_scan_reference(silu(t_sorted), p.s6_t)
    t_stream = t_scanned[perm_t.inverse] * gate

    return z_prev + (h_stream + t_stream) @ p.out_w.data + p.out_b.data


def random_instance(rng, conv_mode="standard"):
    cfg = toy_config(
        c_dim=int(rng.integers(2, 8)),
        s_tokens=int(rng.integers(2, 12)),
        n_state=int(rng.integers(1, 5)),
        l_blocks=1,
        conv_mode=conv_mode,
    )
    params = init_block(cfg, rng)
    # out_proj is zero-initialized for training; the oracle must see a
    # nontrivial output path.
    params.out_w.data = rng.normal(size=params.out_w.shape) * cfg.c_inner ** -0.5
    params.out_b.data = rng.normal(size=params.out_b.shape) * 0.1
    z = rng.normal(size=(cfg.s_tokens, cfg.c_dim))
    centers = rng.uniform(-1, 1, size=(cfg.s_tokens, 3))
    perm_h, perm_t = compute_permutations(centers, cfg)
    return cfg, params, z, perm_h, perm_t


def test_block_matches_transcription_oracle_100_instances():
    rng = np.random.default_rng(0)
    worst = 0.0
    for i in range(100):
        mode = ("standard", "causal", "none")[i % 3]
        cfg, params, z, perm_h, perm_t = random_instance(rng, mode)
        got = block_forward(Tensor(z), perm_h, perm_t, params, cfg).data
        want = block_oracle(z, perm_h, perm_t, params, cfg)
        worst = max(worst, np.abs(got - want).max())
    assert worst <= 1e-10


def batched_instance(rng, conv_mode="standard", nb=3):
    cfg, params, _, _, _ = random_instance(rng, conv_mode)
    z = rng.normal(size=(nb, cfg.s_tokens, cfg.c_dim))
    perm_h, perm_t = compute_permutations(rng.uniform(-1, 1, size=(nb, cfg.s_tokens, 3)), cfg)
    return cfg, params, z, perm_h, perm_t


def test_fused_block_matches_composed_oracle():
    rng = np.random.default_rng(20)
    for i in range(30):
        mode = ("standard", "causal", "none")[i % 3]
        make = random_instance if i % 2 else batched_instance
        cfg, params, z, perm_h, perm_t = make(rng, mode)
        x = Tensor(z, requires_grad=True)
        tensors = {"input": x, **dict(named_parameters(params))}
        (got, got_grads), (want, want_grads) = (
            forward_and_grads(lambda: fn(x, perm_h, perm_t, params, cfg), tensors, i)
            for fn in (block_forward, composed_block_forward)
        )
        assert np.array_equal(got, want)
        assert_grads_match(got_grads, want_grads)


def test_block_forward_without_gradients_equals_recorded_forward():
    rng = np.random.default_rng(21)
    for mode in ("standard", "causal", "none"):
        cfg, params, z, perm_h, perm_t = batched_instance(rng, mode)
        recorded = block_forward(Tensor(z, requires_grad=True), perm_h, perm_t, params, cfg)
        with ad.no_grad():
            bare = block_forward(Tensor(z), perm_h, perm_t, params, cfg)
        assert recorded.requires_grad and not bare.requires_grad
        assert np.array_equal(bare.data, recorded.data)


def test_zero_out_proj_gives_identity_block():
    rng = np.random.default_rng(1)
    cfg, params, z, perm_h, perm_t = random_instance(rng)
    params.out_w.data[:] = 0.0
    params.out_b.data[:] = 0.0
    out = block_forward(Tensor(z), perm_h, perm_t, params, cfg).data
    assert np.array_equal(out, z)


def test_zero_gate_annihilates_both_streams():
    rng = np.random.default_rng(2)
    cfg, params, z, perm_h, perm_t = random_instance(rng)
    params.gate_w.data[:] = 0.0
    params.gate_b.data[:] = 0.0
    out = block_forward(Tensor(z), perm_h, perm_t, params, cfg).data
    # gate = SiLU(0) = 0 kills H and T; the residual plus out_proj bias remains
    assert np.allclose(out, z + params.out_b.data, atol=1e-14)


def test_permutation_size_mismatch_rejected():
    rng = np.random.default_rng(3)
    cfg, params, z, perm_h, perm_t = random_instance(rng)
    from occpoint.curves import Permutation

    bad = Permutation.identity(z.shape[0] + 1)
    with pytest.raises(ShapeError):
        block_forward(Tensor(z), bad, perm_t, params, cfg)


# --- encoder ----------------------------------------------------------------


def test_encoder_l0_is_pooled_head_affine():
    rng = np.random.default_rng(4)
    cfg = toy_config(l_blocks=0, s_tokens=6, c_dim=5, embed_dim=4)
    params = init_encoder(cfg, rng)
    tokens = rng.normal(size=(6, 5))
    centers = rng.uniform(-1, 1, size=(6, 3))
    z = encoder_forward(TokenSequence(Tensor(tokens), centers), cfg, params)
    want = (tokens @ params.head_w.data + params.head_b.data).mean(axis=0)
    assert np.allclose(z.data, want, atol=1e-14)


def test_encoder_bitwise_invariant_to_point_order():
    rng = np.random.default_rng(5)
    cfg = toy_config(s_tokens=8, k_neighbors=6, c_dim=16, l_blocks=2, n_state=4,
                     embed_dim=8)
    enc = init_encoder(cfg, rng)
    pts = rng.uniform(-1, 1, size=(120, 3))
    cols = rng.random((120, 3))

    from occpoint.tokenizer import tokenize

    def embed(points, colors):
        seq = tokenize(points, colors, cfg.s_tokens, cfg.k_neighbors, enc.pointnet)
        return encoder_forward(seq, cfg, enc).data

    base = embed(pts, cols)
    for _ in range(3):
        perm = rng.permutation(120)
        assert np.array_equal(embed(pts[perm], cols[perm]), base)


def test_encoder_rejects_bad_shapes():
    rng = np.random.default_rng(6)
    cfg = toy_config(s_tokens=6, c_dim=5)
    params = init_encoder(cfg, rng)
    with pytest.raises(ShapeError):
        encoder_forward(TokenSequence(Tensor(rng.normal(size=(6, 7))),
                                      rng.uniform(-1, 1, (6, 3))), cfg, params)
    with pytest.raises(ShapeError):
        encoder_forward(TokenSequence(Tensor(rng.normal(size=(9, 5))),
                                      rng.uniform(-1, 1, (9, 3))), cfg, params)


def test_permutations_recomputed_match_cached():
    rng = np.random.default_rng(7)
    cfg = toy_config(s_tokens=10)
    centers = rng.uniform(-1, 1, size=(10, 3))
    pa, pb = compute_permutations(centers, cfg)
    assert np.array_equal(pa.forward, sort_by_curve(centers, cfg.curve_a, cfg.curve_bits).forward)
    assert np.array_equal(pb.forward, sort_by_curve(centers, cfg.curve_b, cfg.curve_bits).forward)


# --- ablation configurations ---------------------------------------------------


ABLATION_ROWS = [
    # component toggles: (curve_a, curve_b, conv_mode)
    ("fps", "fps", "causal"),            # baseline: FPS order + causal conv
    ("hilbert", "hilbert", "standard"),
    ("trans-hilbert", "trans-hilbert", "standard"),
    ("hilbert", "trans-hilbert", "none"),
    ("hilbert", "trans-hilbert", "standard"),
    # ordering strategies at fixed conv
    ("morton", "trans-morton", "standard"),
    ("hilbert", "morton", "standard"),
]


@pytest.mark.parametrize("curve_a,curve_b,conv_mode", ABLATION_ROWS)
def test_ablation_configs_run_forward_and_backward(curve_a, curve_b, conv_mode):
    rng = np.random.default_rng(8)
    cfg = toy_config(
        s_tokens=6, c_dim=8, n_state=2, l_blocks=1, embed_dim=4,
        curve_a=CurveKind.from_string(curve_a),
        curve_b=CurveKind.from_string(curve_b),
        conv_mode=conv_mode,
    )
    params = init_encoder(cfg, rng)
    tokens = Tensor(rng.normal(size=(6, 8)), requires_grad=False)
    centers = rng.uniform(-1, 1, size=(6, 3))
    z = encoder_forward(TokenSequence(tokens, centers), cfg, params)
    loss = ad.tensor_sum(ad.square(z))
    loss.backward()
    from occpoint.encoder import named_parameters

    def participates(name):
        if name.startswith("pointnet"):
            return False  # tokens fed directly here
        return conv_mode != "none" or ".conv_" not in name

    grads = [t.grad for name, t in named_parameters(params) if participates(name)]
    assert all(g is not None and np.isfinite(g).all() for g in grads)


def test_invalid_conv_mode_rejected():
    with pytest.raises(InvalidConfig):
        EncoderConfig(conv_mode="dilated")


# --- scale accounting -----------------------------------------------------------


def test_param_count_closed_form_matches_enumeration():
    rng = np.random.default_rng(9)
    for cfg in (desk_config(), toy_config(), full_scale_config(l_blocks=2)):
        params = init_encoder(cfg, rng)
        assert count_params(cfg) == count_params_enumerated(params)


def test_single_affine_param_count():
    # With no blocks the count is tokenizer + one 4 -> 3 affine head (4*3+3 = 15).
    cfg = toy_config(l_blocks=0, c_dim=4, embed_dim=3, pointnet_hidden=2)
    tokenizer = (6 * 2 + 2) + (2 * 4 + 4) + (4 * 4 + 4)
    assert count_params(cfg) == tokenizer + 15


def test_full_scale_parameter_target():
    n = count_params(full_scale_config())
    assert abs(n - 29_200_000) / 29_200_000 <= 0.15


def test_flops_linear_in_tokens():
    cfg = full_scale_config()
    r = count_flops(cfg, 8192) / count_flops(cfg, 4096)
    assert r <= 2.1


def test_attention_equivalent_quadratic_in_tokens():
    cfg = full_scale_config()
    big = attention_equivalent_flops(cfg, 1 << 16) / attention_equivalent_flops(cfg, 1 << 15)
    assert 3.5 <= big <= 4.0


def test_encoder_flops_below_attention_at_full_scale():
    cfg = full_scale_config()
    for s in (512, 1024, 2048, 4096):
        assert count_flops(cfg, s) < attention_equivalent_flops(cfg, s)
