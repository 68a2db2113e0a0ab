"""Analytic FLOPs table and measured forward latency across token counts."""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import (
    EncoderConfig,
    attention_equivalent_flops,
    count_flops,
    encoder_forward,
    init_encoder,
)
from .training import curve_orders

_allocator_tuned = False


def _tune_allocator() -> None:
    """Keep multi-megabyte activations on the recycled heap during timing.

    glibc malloc hands allocations above its mmap threshold straight to
    mmap/munmap, so every forward pass at larger token counts would pay page
    faults for each array it touches and the measured scaling would show a
    spurious step wherever activations cross that threshold. Best-effort and
    process-wide; a no-op off glibc.
    """
    global _allocator_tuned
    if _allocator_tuned:
        return
    _allocator_tuned = True
    try:
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(-3, 1 << 26)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 1 << 28)  # M_TRIM_THRESHOLD
    except OSError:
        pass


@dataclass
class BenchRow:
    s_tokens: int
    encoder_gflops: float
    attention_gflops: float
    latency_ms: float


def measure_latencies(config: EncoderConfig, sizes, runs: int, seed: int) -> dict[int, float]:
    """Median forward wall time (ms) per token count: one cloud's curve
    orders, then the encoder over its (1, S, C) tokens.

    The sizes are interleaved within each measurement cycle (after a warmup
    pass per size), so clock-speed and scheduler drift hit every size equally
    instead of biasing whichever size ran last.
    """
    _tune_allocator()
    setups = {}
    for s in sizes:
        rng = np.random.Generator(np.random.PCG64([seed, s]))
        cfg = replace(config, s_tokens=s)
        params = init_encoder(cfg, rng)
        tokens = Tensor(rng.normal(size=(1, s, cfg.c_dim)))
        centers = rng.uniform(-1.0, 1.0, size=(1, s, 3))
        setups[s] = (cfg, params, tokens, centers)
    samples: dict[int, list[float]] = {s: [] for s in sizes}
    with ad.no_grad():
        for s in sizes:
            cfg, params, tokens, centers = setups[s]
            encoder_forward(tokens, curve_orders(centers, cfg), params, cfg)
        for _ in range(runs):
            for s in sizes:
                cfg, params, tokens, centers = setups[s]
                t0 = time.perf_counter()
                encoder_forward(tokens, curve_orders(centers, cfg), params, cfg)
                samples[s].append(time.perf_counter() - t0)
    return {s: float(np.median(ts) * 1e3) for s, ts in samples.items()}


def run_benchmark(config: EncoderConfig, sizes, runs: int, seed: int) -> list[BenchRow]:
    latencies = measure_latencies(config, sizes, runs, seed)
    rows = []
    for s in sizes:
        rows.append(BenchRow(
            s_tokens=s,
            encoder_gflops=count_flops(config, s) / 1e9,
            attention_gflops=attention_equivalent_flops(config, s) / 1e9,
            latency_ms=latencies[s],
        ))
    return rows


def format_table(rows: list[BenchRow]) -> str:
    lines = [f"{'S':>6}  {'encoder GFLOPs':>15}  {'attention GFLOPs':>17}  {'latency ms':>11}"]
    for r in rows:
        lines.append(f"{r.s_tokens:>6}  {r.encoder_gflops:>15.3f}  "
                     f"{r.attention_gflops:>17.3f}  {r.latency_ms:>11.2f}")
    return "\n".join(lines)


def format_csv(rows: list[BenchRow]) -> str:
    lines = ["s_tokens,encoder_gflops,attention_gflops,latency_ms"]
    for r in rows:
        lines.append(f"{r.s_tokens},{r.encoder_gflops:.6f},"
                     f"{r.attention_gflops:.6f},{r.latency_ms:.4f}")
    return "\n".join(lines) + "\n"
