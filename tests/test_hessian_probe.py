from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import raises

from diagocp import hessian_probe
from diagocp.diag_ocp import OptimizerConfig, clip_diag
from diagocp.hessian_probe import ProbeConfig, _draw, hutchinson_diag, probe_table
from diagocp.problems import BatchSeed, Channel, MlpRegression, StackSeed, stream_states


def test_probe_config_validation():
    with raises(ValueError):
        ProbeConfig(n_probes=0)
    with raises(ValueError):
        ProbeConfig(distribution="uniform")
    # the estimator's settings only: the clip range is Diag-OCP's mu and g_d
    assert [f.name for f in fields(ProbeConfig)] == ["n_probes", "distribution"]
    with raises(TypeError):
        ProbeConfig(clip_lo=1e-4)


@pytest.mark.parametrize("n_probes", [2.5, True, "3", float("nan")])
def test_probe_config_rejects_a_non_integral_probe_count(n_probes):
    with raises(ValueError, match="n_probes"):
        ProbeConfig(n_probes=n_probes)


def test_probe_config_reads_an_integral_float_probe_count_as_an_int():
    for n_probes in (3.0, np.int64(3)):
        cfg = ProbeConfig(n_probes=n_probes)
        assert type(cfg.n_probes) is int and cfg == ProbeConfig(n_probes=3)


def probe_block(distribution, dim, seed, n_probes=1):
    """The probe block that hutchinson_diag hands its hvp_fn."""
    seen = []
    cfg = ProbeConfig(n_probes=n_probes, distribution=distribution)
    hutchinson_diag(lambda V: seen.append(V) or V, dim, cfg, seed)
    return seen[0]


def test_probe_block_rademacher_values():
    V = probe_block("rademacher", 500, BatchSeed(0, 0, Channel.PROBE), n_probes=2)
    assert V.shape == (2, 500)
    assert set(np.unique(V)) == {-1.0, 1.0}


def test_probe_block_deterministic_by_seed():
    a = probe_block("standard_normal", 32, BatchSeed(1, 5, Channel.PROBE))
    b = probe_block("standard_normal", 32, BatchSeed(1, 5, Channel.PROBE))
    c = probe_block("standard_normal", 32, BatchSeed(1, 6, Channel.PROBE))
    np.testing.assert_array_equal(a, b)
    assert np.any(a != c)


def test_hutchinson_exact_on_diagonal_with_rademacher():
    d = np.array([3.0, -1.0, 0.5, 7.0])
    cfg = ProbeConfig(n_probes=1, distribution="rademacher")
    est = hutchinson_diag(lambda v: d * v, 4, cfg, BatchSeed(0, 0, Channel.PROBE))
    # v_i^2 = 1 makes the single-probe estimate exact
    np.testing.assert_array_equal(est, d)


def test_hutchinson_unbiased_on_dense_symmetric():
    rng = np.random.default_rng(8)
    a = rng.uniform(-0.3, 0.3, (8, 8))
    a = (a + a.T) / 2.0
    a[np.diag_indices(8)] = rng.uniform(1.0, 2.0, 8)
    cfg = ProbeConfig(n_probes=100_000, distribution="rademacher")
    est = hutchinson_diag(lambda V: V @ a, 8, cfg, BatchSeed(3, 0, Channel.PROBE))
    rel = np.abs(est - np.diag(a)) / np.abs(np.diag(a))
    assert rel.max() <= 0.05


def test_hutchinson_standard_normal_converges():
    d = np.array([2.0, 5.0])
    cfg = ProbeConfig(n_probes=50_000, distribution="standard_normal")
    est = hutchinson_diag(lambda v: d * v, 2, cfg, BatchSeed(9, 0, Channel.PROBE))
    # var per probe is 2*d_i^2 for gaussian probes
    np.testing.assert_allclose(est, d, rtol=0.05)


def test_hutchinson_rejects_bad_hvp_shape():
    cfg = ProbeConfig()
    with raises(ValueError):
        hutchinson_diag(lambda V: V[:, :2], 4, cfg, BatchSeed(0, 0, Channel.PROBE))


def test_hutchinson_block_equals_per_probe_loop():
    prob = MlpRegression(n_samples=128, batch_size=32)
    x = prob.default_init(np.random.default_rng(4))
    hseed = BatchSeed(5, 2, Channel.HESSIAN_NOISE)
    pseed = BatchSeed(5, 2, Channel.PROBE)
    for distribution in ("rademacher", "standard_normal"):
        cfg = ProbeConfig(n_probes=4, distribution=distribution)
        est = hutchinson_diag(lambda V: prob.hvp(x, V, hseed), prob.dim, cfg, pseed)
        rng = pseed.rng()
        acc = np.zeros(prob.dim)
        for _ in range(cfg.n_probes):
            if distribution == "rademacher":
                v = (rng.integers(0, 2, size=prob.dim) * 2 - 1).astype(np.float64)
            else:
                v = rng.standard_normal(prob.dim)
            acc += v * prob.hvp(x, v, hseed)
        np.testing.assert_array_equal(est, acc / cfg.n_probes)


@pytest.mark.parametrize("distribution", ["rademacher", "standard_normal"])
def test_probe_block_is_one_draw_equal_to_per_probe_draws(distribution):
    for dim in (1, 2, 7, 178):
        for n_probes in (1, 3, 4):
            cfg = ProbeConfig(n_probes=n_probes, distribution=distribution)
            for base in range(10):
                seed = BatchSeed(base, 1, Channel.PROBE)
                seen = []
                hutchinson_diag(lambda V: seen.append(V) or V, dim, cfg, seed)
                rng = seed.rng()
                expected = []
                for _ in range(n_probes):
                    if distribution == "rademacher":
                        expected.append((rng.integers(0, 2, size=dim) * 2 - 1)
                                        .astype(np.float64))
                    else:
                        expected.append(rng.standard_normal(dim))
                np.testing.assert_array_equal(seen[0], np.stack(expected))


def test_hutchinson_on_a_seed_stack_equals_each_seed_alone():
    prob = MlpRegression(n_samples=128, batch_size=32)
    rng = np.random.default_rng(6)
    X = np.stack([prob.default_init(rng) for _ in range(3)])
    bases = (4, 5, 6)
    words = stream_states(bases, [2])[:, 0]
    hstack, pstack = (StackSeed(bases, 2, c, range(3), words[:, c])
                      for c in (Channel.HESSIAN_NOISE, Channel.PROBE))
    hseeds = [BatchSeed(b, 2, Channel.HESSIAN_NOISE) for b in bases]
    pseeds = [BatchSeed(b, 2, Channel.PROBE) for b in bases]
    cfg = ProbeConfig(n_probes=4, distribution="rademacher")
    est = hutchinson_diag(lambda V: prob.hvp(X, V, hstack), prob.dim, cfg, pstack)
    alone = [hutchinson_diag(lambda V, x=x, s=s: prob.hvp(x, V, s), prob.dim, cfg, p)
             for x, s, p in zip(X, hseeds, pseeds)]
    np.testing.assert_array_equal(est, np.stack(alone))


@pytest.mark.parametrize("n_probes", [1, 4])
@pytest.mark.parametrize("distribution, dtype", [("rademacher", np.int8),
                                                 ("standard_normal", np.float64)])
def test_probe_table_rows_equal_each_lone_seeds_draw(distribution, dtype, n_probes):
    cfg = ProbeConfig(n_probes=n_probes, distribution=distribution)
    bases, dim, steps = (4, 5, 6), 7, 5
    words = stream_states(bases, range(steps))
    table = probe_table(cfg, dim, bases, words)
    assert table.shape == (3, steps, n_probes, dim) and table.dtype == dtype
    a = np.random.default_rng(2).standard_normal((dim, dim))
    sym = a + a.T
    for k in range(steps):
        tabled = StackSeed(bases, k, Channel.PROBE, [2, 0, 2, 1],
                           words[:, k, Channel.PROBE], table)
        seen = []
        est = hutchinson_diag(lambda V: seen.append(V) or V @ sym, dim, cfg, tabled)
        assert seen[0].dtype == np.float64
        for i, base in enumerate(bases):
            seed = BatchSeed(base, k, Channel.PROBE)
            block = _draw(distribution, (n_probes, dim), seed.rng())
            np.testing.assert_array_equal(table[i, k], block)
            alone = hutchinson_diag(lambda V: V @ sym, dim, cfg, seed)
            for row in np.flatnonzero(tabled.rows == i):
                np.testing.assert_array_equal(seen[0][row], block)
                np.testing.assert_array_equal(est[row], alone)


def test_probe_table_over_the_size_bound_is_not_built(monkeypatch):
    cfg = ProbeConfig(n_probes=2, distribution="rademacher")
    words = stream_states((4, 5), range(3))
    # 2 bases x 3 steps x 2 probes x 7 entries of one byte each
    monkeypatch.setattr(hessian_probe, "_PROBE_TABLE_MAX_BYTES", 84)
    assert probe_table(cfg, 7, (4, 5), words).nbytes == 84
    monkeypatch.setattr(hessian_probe, "_PROBE_TABLE_MAX_BYTES", 83)
    assert probe_table(cfg, 7, (4, 5), words) is None


def test_hutchinson_rejects_a_table_of_other_blocks():
    words = stream_states((4, 5), range(3))
    table = probe_table(ProbeConfig(n_probes=2), 7, (4, 5), words)
    seed = StackSeed((4, 5), 1, Channel.PROBE, [0, 1], words[:, 1, Channel.PROBE], table)
    with raises(ValueError, match="probe table"):
        hutchinson_diag(lambda V: V, 7, ProbeConfig(n_probes=3), seed)


def test_clip_diag_spec_example():
    cfg = OptimizerConfig(mu=1e-4, g_d=1e4)
    out = clip_diag(np.array([-0.5, 0.00005, 2.0]), cfg)
    np.testing.assert_array_equal(out, [1e-4, 1e-4, 2.0])
    out = clip_diag(np.array([1e9]), cfg)
    np.testing.assert_array_equal(out, [1e4])


def test_clip_diag_passes_nan_through():
    # a NaN estimate comes from a blown-up point; the stepper drops its row
    out = clip_diag(np.array([1.0, np.nan, -np.inf]), OptimizerConfig())
    np.testing.assert_array_equal(out, [1.0, np.nan, 1e-4])


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=32))
@settings(max_examples=200, deadline=None)
def test_clip_diag_bounds_and_idempotence(values):
    cfg = OptimizerConfig(mu=1e-4, g_d=1e4)
    h = np.array(values)
    out = clip_diag(h, cfg)
    assert np.all(out >= cfg.mu)
    assert np.all(out <= cfg.g_d)
    np.testing.assert_array_equal(clip_diag(out, cfg), out)
    # in-range entries pass through untouched
    inside = (h >= cfg.mu) & (h <= cfg.g_d)
    np.testing.assert_array_equal(out[inside], h[inside])
