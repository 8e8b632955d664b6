import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import raises

from diagocp import harness
from diagocp.diag_ocp import OptimizerConfig, clip_diag
from diagocp.hessian_probe import _draw, hutchinson_diag, probe_draw
from diagocp.problems import (BatchSeed, Channel, MlpRegression, Quadratic, StackSeed,
                              stream_states)


def test_probe_config_validation():
    # probe_draw checks the probe settings it is given
    with raises(ValueError, match="n_probes"):
        probe_draw(0, "standard_normal", 4)
    with raises(ValueError, match="probe distribution"):
        probe_draw(1, "uniform", 4)
    with raises(ValueError, match="dim"):
        probe_draw(1, "standard_normal", 0)
    # the estimator's settings only: the clip range is Diag-OCP's mu and g_d
    with raises(TypeError):
        probe_draw(1, "standard_normal", 4, clip_lo=1e-4)


@pytest.mark.parametrize("n_probes", [2.5, True, "3", float("nan")])
def test_probe_config_rejects_a_non_integral_probe_count(n_probes):
    with raises(ValueError, match="n_probes"):
        probe_draw(n_probes, "standard_normal", 4)


def test_probe_config_reads_an_integral_float_probe_count_as_an_int():
    want = probe_draw(3, "rademacher", 5)
    for n_probes in (3.0, np.int64(3)):
        draw = probe_draw(n_probes, "rademacher", 5)
        assert draw.shape == want.shape == (3, 5) and type(draw.shape[0]) is int
        assert draw.dtype == want.dtype == np.int8
        np.testing.assert_array_equal(draw.fn(np.random.default_rng(1)),
                                      want.fn(np.random.default_rng(1)))


def probe_block(distribution, dim, seed, n_probes=1):
    """The probe block that hutchinson_diag hands its hvp_fn."""
    seen = []
    hutchinson_diag(lambda V: seen.append(V) or V,
                    probe_draw(n_probes, distribution, dim), seed)
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
    est = hutchinson_diag(lambda v: d * v, probe_draw(1, "rademacher", 4),
                          BatchSeed(0, 0, Channel.PROBE))
    # v_i^2 = 1 makes the single-probe estimate exact
    np.testing.assert_array_equal(est, d)


def test_hutchinson_unbiased_on_dense_symmetric():
    rng = np.random.default_rng(8)
    a = rng.uniform(-0.3, 0.3, (8, 8))
    a = (a + a.T) / 2.0
    a[np.diag_indices(8)] = rng.uniform(1.0, 2.0, 8)
    est = hutchinson_diag(lambda V: V @ a, probe_draw(100_000, "rademacher", 8),
                          BatchSeed(3, 0, Channel.PROBE))
    rel = np.abs(est - np.diag(a)) / np.abs(np.diag(a))
    assert rel.max() <= 0.05


def test_hutchinson_standard_normal_converges():
    d = np.array([2.0, 5.0])
    est = hutchinson_diag(lambda v: d * v, probe_draw(50_000, "standard_normal", 2),
                          BatchSeed(9, 0, Channel.PROBE))
    # var per probe is 2*d_i^2 for gaussian probes
    np.testing.assert_allclose(est, d, rtol=0.05)


def test_hutchinson_rejects_bad_hvp_shape():
    with raises(ValueError, match="hvp_fn returned"):
        hutchinson_diag(lambda V: V[:, :2], probe_draw(1, "standard_normal", 4),
                        BatchSeed(0, 0, Channel.PROBE))


def test_hutchinson_block_equals_per_probe_loop():
    prob = MlpRegression(n_samples=128, batch_size=32)
    x = prob.default_init(np.random.default_rng(4))
    hseed = BatchSeed(5, 2, Channel.HESSIAN_NOISE)
    pseed = BatchSeed(5, 2, Channel.PROBE)
    for distribution in ("rademacher", "standard_normal"):
        est = hutchinson_diag(lambda V: prob.hvp(x, V, hseed),
                              probe_draw(4, distribution, prob.dim), pseed)
        rng = pseed.rng()
        acc = np.zeros(prob.dim)
        for _ in range(4):
            if distribution == "rademacher":
                v = (rng.integers(0, 2, size=prob.dim) * 2 - 1).astype(np.float64)
            else:
                v = rng.standard_normal(prob.dim)
            acc += v * prob.hvp(x, v, hseed)
        np.testing.assert_array_equal(est, acc / 4)


@pytest.mark.parametrize("distribution", ["rademacher", "standard_normal"])
def test_probe_block_is_one_draw_equal_to_per_probe_draws(distribution):
    for dim in (1, 2, 7, 178):
        for n_probes in (1, 3, 4):
            probe = probe_draw(n_probes, distribution, dim)
            for base in range(10):
                seed = BatchSeed(base, 1, Channel.PROBE)
                seen = []
                hutchinson_diag(lambda V: seen.append(V) or V, probe, seed)
                rng = seed.rng()
                expected = []
                for _ in range(n_probes):
                    if distribution == "rademacher":
                        expected.append((rng.integers(0, 2, size=dim) * 2 - 1)
                                        .astype(np.float64))
                    else:
                        expected.append(rng.standard_normal(dim))
                np.testing.assert_array_equal(seen[0], np.stack(expected))


@pytest.mark.parametrize("hvp", [lambda V: V, lambda V: 2.0 * V], ids=["identity", "scaled"])
@pytest.mark.parametrize("distribution", ["rademacher", "standard_normal"])
def test_hutchinson_writes_into_no_probe_block(distribution, hvp):
    # hvp_fn may keep the block it is handed, or hand it back: the average
    # is formed in an array of its own, for a lone seed and for a table
    probe = probe_draw(3, distribution, 5)
    table = probe.table((4, 5), range(2), Channel.PROBE, stream_states((4, 5), range(2)))
    kept = table.copy()
    for seed in (BatchSeed(1, 0, Channel.PROBE), StackSeed(table, 1, [1, 0, 1])):
        seen = []
        est = hutchinson_diag(lambda V: seen.append((V, V.copy())) or hvp(V), probe, seed)
        ((V, at_call),) = seen
        np.testing.assert_array_equal(V, at_call)
        assert not np.shares_memory(est, V)
    np.testing.assert_array_equal(table, kept)


def test_hutchinson_on_a_seed_stack_equals_each_seed_alone():
    prob = MlpRegression(n_samples=128, batch_size=32)
    rng = np.random.default_rng(6)
    X = np.stack([prob.default_init(rng) for _ in range(3)])
    bases = (4, 5, 6)
    probe = probe_draw(4, "rademacher", prob.dim)
    words = stream_states(bases, [2])
    hstack, pstack = (StackSeed(draw.table(bases, [2], c, words), 0, range(3))
                      for draw, c in ((prob.stream_draw(), Channel.HESSIAN_NOISE),
                                      (probe, Channel.PROBE)))
    hseeds = [BatchSeed(b, 2, Channel.HESSIAN_NOISE) for b in bases]
    pseeds = [BatchSeed(b, 2, Channel.PROBE) for b in bases]
    est = hutchinson_diag(lambda V: prob.hvp(X, V, hstack), probe, pstack)
    alone = [hutchinson_diag(lambda V, x=x, s=s: prob.hvp(x, V, s), probe, p)
             for x, s, p in zip(X, hseeds, pseeds)]
    np.testing.assert_array_equal(est, np.stack(alone))


@pytest.mark.parametrize("n_probes", [1, 4])
@pytest.mark.parametrize("distribution, dtype", [("rademacher", np.int8),
                                                 ("standard_normal", np.float64)])
def test_probe_table_rows_equal_each_lone_seeds_draw(distribution, dtype, n_probes):
    bases, dim, steps = (4, 5, 6), 7, 5
    probe = probe_draw(n_probes, distribution, dim)
    words = stream_states(bases, range(steps))
    table = probe.table(bases, range(steps), Channel.PROBE, words)
    assert table.shape == (3, steps, n_probes, dim) and table.dtype == dtype
    a = np.random.default_rng(2).standard_normal((dim, dim))
    sym = a + a.T
    for k in range(steps):
        tabled = StackSeed(table, k, [2, 0, 2, 1])
        seen = []
        est = hutchinson_diag(lambda V: seen.append(V) or V @ sym, probe, tabled)
        assert seen[0].dtype == np.float64
        for i, base in enumerate(bases):
            seed = BatchSeed(base, k, Channel.PROBE)
            block = _draw(distribution, (n_probes, dim), seed.rng())
            np.testing.assert_array_equal(table[i, k], block)
            alone = hutchinson_diag(lambda V: V @ sym, probe, seed)
            for row in np.flatnonzero(tabled.rows == i):
                np.testing.assert_array_equal(seen[0][row], block)
                np.testing.assert_array_equal(est[row], alone)


def test_probe_table_over_the_size_bound_is_not_built(monkeypatch):
    # tables over the budget are not built whole but a window of steps at a
    # time: here 2 replicates x (96 bytes of seed words + 2 probes x 7
    # one-byte entries) = 220 bytes per step
    opt_cfg = OptimizerConfig(n_probes=2, probe_distribution="rademacher")
    cfg = harness.RunConfig(problem=Quadratic(np.ones(7)), optimizer="diag_ocp",
                            opt_cfg=opt_cfg, max_steps=3, base_seed=0, n_seeds=2)
    for budget, steps in ((660, 3), (659, 2), (219, 1)):
        monkeypatch.setattr(harness, "BUDGET", budget)
        table = harness._streams(cfg).tables[Channel.PROBE]
        assert table.shape == (2, steps, 2, 7) and table.nbytes == 28 * steps


def test_hutchinson_rejects_a_table_of_other_blocks():
    table = probe_draw(2, "standard_normal", 7).table(
        (4, 5), range(3), Channel.PROBE, stream_states((4, 5), range(3)))
    with raises(ValueError, match="probe blocks"):
        hutchinson_diag(lambda V: V, probe_draw(3, "standard_normal", 7),
                        StackSeed(table, 1, [0, 1]))


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
