import numpy as np
import pytest
from pytest import raises

from diagocp.problems import (_HVP_STEP_SCALE, BatchSeed, Channel, MlpRegression,
                              NoisyLeastSquares, ProblemOracle, Quadratic,
                              Rosenbrock2D, StackSeed, as_integer, as_params,
                              as_real, make_problem, stream_states)


def row_seeds(prob, bases, step, channel, rows=None):
    """A StackSeed whose row r reads bases[rows[r]] (each base once, in
    order, by default) at step, from a one-step table of prob's draws on
    channel, and each row's lone BatchSeed. A full-batch, noise-free prob
    draws nothing, so its table holds nothing."""
    rows = range(len(bases)) if rows is None else rows
    draw = prob.stream_draw()
    table = (np.zeros((len(bases), 1)) if draw is None
             else draw.table(bases, [step], channel, stream_states(bases, [step])))
    return StackSeed(table, 0, rows), [BatchSeed(bases[r], step, channel) for r in rows]


class CentralRosenbrock(Rosenbrock2D):
    """Rosenbrock with the base oracle's central-difference HVP in place of
    its analytic one, so the difference path runs against a closed form."""

    _hvps = ProblemOracle._hvps


class CentralLeastSquares(NoisyLeastSquares):
    """Least squares with the base oracle's central-difference HVP."""

    _hvps = ProblemOracle._hvps


def fd_gradient(problem, x, eps=1e-6):
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (problem.eval_loss(x + e, None) - problem.eval_loss(x - e, None)) / (2 * eps)
    return g


# --- seed streams ----------------------------------------------------------

STREAM_BASES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**40) + 3,
                np.int64(-7), np.uint64(2**64 - 1), np.int32(5)]
STREAM_STEPS = [0, 1, 2**32 - 1, np.int64(7)]


def seed_sequence_words(base, step, channel):
    """The reference: the words numpy's SeedSequence hands PCG64."""
    ss = np.random.SeedSequence(entropy=int(base) & (2**64 - 1),
                                spawn_key=(int(step), int(channel)))
    return ss.generate_state(4, np.uint64)


def test_stream_states_equal_seed_sequence():
    rng = np.random.default_rng(12)
    bases = STREAM_BASES + [int(b) for b in rng.integers(0, 2**64, 40, dtype=np.uint64)]
    bases += list(rng.integers(-2**63, 2**63, 20, dtype=np.int64))
    steps = STREAM_STEPS + [int(k) for k in rng.integers(0, 2**32, 8)]
    steps += [int(k) for k in rng.integers(0, 1000, 8)]
    table = stream_states(bases, steps)
    assert table.shape == (len(bases), len(steps), len(Channel), 4)
    assert table.dtype == np.uint64
    # 70 bases x 20 steps x 3 channels = 4,200 triples
    for i, base in enumerate(bases):
        for j, step in enumerate(steps):
            for channel in Channel:
                np.testing.assert_array_equal(table[i, j, channel],
                                              seed_sequence_words(base, step, channel))


def test_stream_states_reject_steps_outside_32_bits():
    # SeedSequence splits 2**32 into two words, a different hash layout
    for step in (-1, 2**32):
        with raises(ValueError, match="stream steps"):
            stream_states([1], [0, step])
    with raises(TypeError):
        stream_states([1], [1.5])
    assert stream_states([], [0, 1]).shape == (0, 2, len(Channel), 4)


@pytest.mark.parametrize("base, step", [(0, 0), (2**64 - 1, 2**32 - 1), (-3, 5),
                                        (np.uint64(2**40), np.int64(9))])
def test_seed_with_table_words_draws_as_seed_without(base, step):
    table = stream_states([base], [step])
    for channel in Channel:
        lone = BatchSeed(base, step, channel)
        carried = BatchSeed(base, step, channel, table[0, 0, channel])
        # the words are not part of the address
        assert carried == lone and hash(carried) == hash(lone)
        a, b = lone.rng(), carried.rng()
        np.testing.assert_array_equal(a.standard_normal(6), b.standard_normal(6))
        np.testing.assert_array_equal(a.choice(40, size=8, replace=False),
                                      b.choice(40, size=8, replace=False))


def test_batch_seed_draws_are_its_one_streams_draw():
    seed = BatchSeed(5, 1, Channel.PROBE)
    got = seed.draws(lambda rng: rng.standard_normal(4))
    np.testing.assert_array_equal(got, seed.rng().standard_normal(4))


def test_stack_seed_derives_no_stream_for_a_replicate_no_row_reads(monkeypatch):
    # rows [2, 0, 2] read replicates 2 and 0, as after replicate 1's rows
    # left the stack: the rows' draws come from the table, filled once per
    # replicate, and the stacked call derives no stream at all
    bases, rows = (11, 12, 13), [2, 0, 2]
    derived = []
    derive = BatchSeed.rng
    monkeypatch.setattr(BatchSeed, "rng",
                        lambda seed: derived.append(seed.base_seed) or derive(seed))
    for draw in ({"batch_size": 16}, {"noise_std_grad": 0.1}):
        prob = MlpRegression(layer_sizes=(4, 8, 2), n_samples=64, **draw)
        rng = np.random.default_rng(35)
        X = np.stack([prob.default_init(rng) for _ in rows])
        derived.clear()
        table = prob.stream_draw().table(bases, range(5), Channel.GRADIENT,
                                         stream_states(bases, range(5)))
        assert sorted(derived) == sorted(list(bases) * 5)
        stack = StackSeed(table, 4, rows)
        np.testing.assert_array_equal(stack.draws(None), table[[2, 0, 2], 4])
        derived.clear()
        G = prob.eval_grad(X, stack)
        assert derived == []
        for r, rep in enumerate(rows):
            np.testing.assert_array_equal(
                G[r], prob.eval_grad(X[r], BatchSeed(bases[rep], 4, Channel.GRADIENT)))


@pytest.mark.parametrize("case", ["quadratic", "rosenbrock", "least_squares", "mlp"])
def test_noise_table_rows_equal_each_lone_seeds_noise(case, monkeypatch):
    prob = NOISY_FULL_BATCH[case]()
    draw = prob.stream_draw()
    assert draw == (prob._noise, (prob.dim,), np.float64)
    bases, steps = (3, 4), [2, 7, 9]
    table = draw.table(bases, steps, Channel.GRADIENT, stream_states(bases, steps))
    assert table.shape == (2, 3, prob.dim) and table.dtype == np.float64
    X = prob.default_init(np.random.default_rng(1)) + np.zeros((2, prob.dim))
    for i, base in enumerate(bases):
        for j, step in enumerate(steps):
            seed = BatchSeed(base, step, Channel.GRADIENT)
            np.testing.assert_array_equal(table[i, j], seed.draws(prob._noise))
            np.testing.assert_array_equal(table[i, j], seed.rng().standard_normal(prob.dim))
            # the stack adds its scaled row as the lone call adds its draw
            stacked = prob.eval_grad(X, StackSeed(table, j, [1 - i, i]))
            np.testing.assert_array_equal(stacked[1], prob.eval_grad(X[1], seed))


def test_a_full_batch_noise_free_oracle_has_no_stream_draw():
    assert Quadratic(np.ones(3)).stream_draw() is None
    assert MlpRegression(layer_sizes=(4, 8, 2), n_samples=64).stream_draw() is None
    for n_samples, dtype in ((40, np.uint8), (400, np.uint16)):
        prob = NoisyLeastSquares(design_seed=3, n_samples=n_samples, dim=6, batch_size=8)
        # the smallest unsigned type that holds every training index
        assert prob.stream_draw() == (prob._sample, (8,), dtype)


class RecordingGenerator:
    """A generator that records the name of every draw made on it."""

    def __init__(self, rng, calls):
        self.rng, self.calls = rng, calls

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


@pytest.mark.parametrize("make, method", [
    (lambda: NoisyLeastSquares(design_seed=3, n_samples=40, dim=6, batch_size=8),
     "eval_loss"),
    (lambda: NoisyLeastSquares(design_seed=3, n_samples=40, dim=6, batch_size=8), "hvp"),
    (lambda: MlpRegression(layer_sizes=(4, 8, 2), n_samples=64, batch_size=16),
     "eval_loss"),
], ids=["least_squares-loss", "least_squares-hvp", "mlp-loss"])
def test_minibatch_loss_and_least_squares_hvp_draw_one_minibatch(make, method,
                                                                 monkeypatch):
    # each replicate's stream draws its minibatch, once, and nothing else
    prob = make()
    bases, rows = (11, 12, 13), [2, 0, 2, 1]
    rng = np.random.default_rng(8)
    X = 0.1 * rng.standard_normal((len(rows), prob.dim))
    args = (X,) if method == "eval_loss" else (X, rng.standard_normal((len(X), 2, prob.dim)))
    call = getattr(prob, method)
    minibatches = [BatchSeed(bases[r], 4, Channel.GRADIENT).rng().choice(
        prob._train_idx, prob.batch_size, replace=False) for r in rows]
    calls = []
    derive = BatchSeed.rng
    monkeypatch.setattr(BatchSeed, "rng",
                        lambda seed: RecordingGenerator(derive(seed), calls))
    stack, _ = row_seeds(prob, bases, 4, Channel.GRADIENT, rows)
    assert calls == ["choice"] * len(bases)
    calls.clear()
    stacked = call(*args, stack)
    assert calls == []
    for r, rep in enumerate(rows):
        calls.clear()
        alone = call(*(a[r] for a in args), BatchSeed(bases[rep], 4, Channel.GRADIENT))
        assert calls == ["choice"]
        # the value is the clean one on the stream's minibatch, bit for bit
        data = prob._rows(minibatches[r])
        A = data[0]     # the minibatch's design rows
        want = (prob._losses(X[r], data) if method == "eval_loss" else
                (2.0 / len(A)) * (A.T @ (A @ args[1][r][..., None]))[..., 0])
        np.testing.assert_array_equal(stacked[r], want)
        np.testing.assert_array_equal(alone, want)


NOISY_FULL_BATCH = {
    "quadratic": lambda: Quadratic(np.array([1.0, 2.0, 4.0]), noise_std_grad=0.1),
    "rosenbrock": lambda: Rosenbrock2D(noise_std_grad=0.01),
    "rosenbrock-cd": lambda: CentralRosenbrock(noise_std_grad=0.01),
    "least_squares": lambda: NoisyLeastSquares(design_seed=3, n_samples=40, dim=6,
                                               noise_std_grad=0.05),
    "least_squares-cd": lambda: CentralLeastSquares(design_seed=3, n_samples=40, dim=6,
                                                    noise_std_grad=0.05),
    "mlp": lambda: MlpRegression(layer_sizes=(4, 8, 2), n_samples=64, noise_std_grad=0.1),
}


@pytest.mark.parametrize("case", sorted(NOISY_FULL_BATCH))
def test_noisy_full_batch_loss_and_hvp_derive_no_stream(case, monkeypatch):
    # gradient noise enters neither a loss nor any HVP, the MLP's central
    # differences included: both equal their seed=None values bit for bit,
    # stacked or alone, and a lone seed derives no stream for them; only
    # the gradient draws
    prob = NOISY_FULL_BATCH[case]()
    bases, rows = (11, 12, 13), [2, 0, 2, 1]
    rng = np.random.default_rng(9)
    X = prob.default_init(rng) + 0.1 * rng.standard_normal((len(rows), prob.dim))
    V = rng.standard_normal((len(rows), 2, prob.dim))
    derived = []
    derive = BatchSeed.rng
    monkeypatch.setattr(BatchSeed, "rng",
                        lambda seed: derived.append(seed.channel) or derive(seed))
    for channel in (Channel.GRADIENT, Channel.HESSIAN_NOISE):
        stack, _ = row_seeds(prob, bases, 4, channel, rows)
        derived.clear()
        np.testing.assert_array_equal(prob.eval_loss(X, stack), prob.eval_loss(X))
        np.testing.assert_array_equal(prob.hvp(X, V, stack), prob.hvp(X, V))
        lone = BatchSeed(bases[0], 4, channel)
        assert prob.eval_loss(X[0], lone) == prob.eval_loss(X[0])
        np.testing.assert_array_equal(prob.hvp(X[0], V[0], lone), prob.hvp(X[0], V[0]))
        assert derived == []
    prob.eval_grad(X, stack)
    assert derived == []
    prob.eval_grad(X[0], BatchSeed(bases[0], 4, Channel.GRADIENT))
    assert derived == [Channel.GRADIENT]


def test_stack_seed_rejects_bad_rows_steps_and_stack_heights():
    prob = NoisyLeastSquares(design_seed=3, n_samples=40, dim=6, batch_size=8)
    table = prob.stream_draw().table((11, 12, 13), [4], Channel.GRADIENT,
                                     stream_states((11, 12, 13), [4]))
    for rows in ([0, 3], [-1, 0], [[0, 1]]):
        with raises(ValueError, match="rows"):
            StackSeed(table, 0, rows)
    with raises(TypeError):     # a fractional row is not truncated
        StackSeed(table, 0, [0.5, 1.0])
    assert len(StackSeed(table, 0, [0, 1, 2, 1])) == 4
    with raises(ValueError, match="rows"):    # a table over fewer replicates
        StackSeed(table[:2], 0, [0, 2])
    for step in (1, -1):        # a step the one-step table does not hold
        with raises(ValueError, match="step"):
            StackSeed(table, step, [0, 1])
    X, V = np.zeros((3, 6)), np.ones((3, 2, 6))
    short = StackSeed(table, 0, [0, 1])
    tall = StackSeed(table, 0, [0, 1, 2, 0])
    for stack in (short, tall):
        for bad_call in (lambda: prob.eval_grad(X, stack),
                         lambda: prob.eval_loss(X, stack),
                         lambda: prob.grad_and_train_loss(X, stack),
                         lambda: prob.hvp(X, V, stack)):
            with raises(ValueError):
                bad_call()


# --- as_params -------------------------------------------------------------

def test_as_params_rejects_bad_shapes():
    with raises(ValueError):
        as_params(np.zeros((2, 2)))
    with raises(ValueError):
        as_params(np.array([]))
    with raises(ValueError):
        as_params(np.array([1.0, np.nan]))
    with raises(ValueError):
        as_params(np.array([1.0, np.inf]))


def test_as_params_accepts_lists():
    x = as_params([1.0, 2.0])
    assert x.dtype == np.float64
    assert x.shape == (2,)


# --- quadratic -------------------------------------------------------------

def test_quadratic_closed_forms():
    prob = Quadratic([2.0, 4.0])
    x = np.array([1.0, -1.0])
    assert prob.eval_loss(x, None) == pytest.approx(0.5 * (2 + 4))
    np.testing.assert_allclose(prob.eval_grad(x, None), [2.0, -4.0])
    v = np.array([1.0, 1.0])
    np.testing.assert_allclose(prob.hvp(x, v, None), [2.0, 4.0])


def test_quadratic_requires_positive_curvature():
    with raises(ValueError):
        Quadratic([1.0, 0.0])
    with raises(ValueError):
        Quadratic([1.0, -2.0])
    with raises(ValueError):
        Quadratic([])
    with raises(ValueError, match="finite"):
        Quadratic([np.inf, 1.0])
    with raises(ValueError):
        Quadratic([np.nan, 1.0])


@pytest.mark.parametrize("h", [[True, 2.0], ["0.5", 1], [1.0, np.bool_(True)]])
def test_quadratic_curvatures_are_real_numbers(h):
    # they were read through asarray(h, float64): True ran as 1.0 and "0.5" as 0.5
    with raises(ValueError, match="h must be a real number, got "):
        Quadratic(h)


def test_quadratic_gradient_matches_fd():
    prob = Quadratic([0.5, 1.0, 3.0])
    x = np.array([0.3, -1.2, 2.0])
    np.testing.assert_allclose(prob.eval_grad(x, None), fd_gradient(prob, x),
                               rtol=1e-6, atol=1e-8)


def test_quadratic_noise_is_unbiased_and_seeded():
    prob = Quadratic([1.0, 2.0], noise_std_grad=0.1)
    x = np.array([1.0, 1.0])
    clean = prob.eval_grad(x, None)
    draws = np.array([prob.eval_grad(x, BatchSeed(7, k, Channel.GRADIENT))
                      for k in range(20000)])
    # 5 sigma on the mean of N(clean, 0.1^2) over 2e4 draws
    err = np.abs(draws.mean(axis=0) - clean)
    assert np.all(err <= 5 * 0.1 / np.sqrt(20000))
    # identical seed replays the identical draw
    a = prob.eval_grad(x, BatchSeed(7, 3, Channel.GRADIENT))
    b = prob.eval_grad(x, BatchSeed(7, 3, Channel.GRADIENT))
    np.testing.assert_array_equal(a, b)
    c = prob.eval_grad(x, BatchSeed(7, 4, Channel.GRADIENT))
    assert np.any(a != c)


def test_eval_grad_rejects_nonfinite_x():
    prob = Quadratic([1.0])
    with raises(ValueError):
        prob.eval_grad(np.array([np.inf]), None)


# --- rosenbrock ------------------------------------------------------------

def test_rosenbrock_frozen_values():
    prob = Rosenbrock2D()
    origin = np.zeros(2)
    assert prob.eval_loss(origin, None) == pytest.approx(1.0)
    np.testing.assert_allclose(prob.eval_grad(origin, None), [-2.0, 0.0])
    np.testing.assert_allclose(prob.hvp(origin, np.array([1.0, 0.0]), None), [2.0, 0.0])
    np.testing.assert_allclose(prob.hvp(origin, np.array([0.0, 1.0]), None), [0.0, 200.0])

    start = prob.default_init(np.random.default_rng(0))
    np.testing.assert_allclose(start, [-1.2, 1.0])
    assert prob.eval_loss(start, None) == pytest.approx(24.2)
    np.testing.assert_allclose(prob.eval_grad(start, None), [-215.6, -88.0])
    # Hessian at (-1.2, 1): [[1330, 480], [480, 200]]
    h1 = prob.hvp(start, np.array([1.0, 0.0]), None)
    h2 = prob.hvp(start, np.array([0.0, 1.0]), None)
    np.testing.assert_allclose(h1, [1330.0, 480.0])
    np.testing.assert_allclose(h2, [480.0, 200.0])


def test_rosenbrock_gradient_matches_fd():
    prob = Rosenbrock2D()
    x = np.array([0.7, -0.3])
    np.testing.assert_allclose(prob.eval_grad(x, None), fd_gradient(prob, x),
                               rtol=1e-5, atol=1e-6)


def test_rosenbrock_central_difference_hvp_matches_exact():
    prob = Rosenbrock2D()
    x = np.array([-0.8, 1.4])
    v = np.array([0.6, -1.1])
    np.testing.assert_allclose(ProblemOracle._hvps(prob, x, v[None], None)[0],
                               prob.hvp(x, v, None), rtol=1e-6, atol=1e-6)


def test_hvp_zero_vector_returns_zero():
    prob = CentralRosenbrock()
    out = prob.hvp(np.array([1.0, 1.0]), np.zeros(2), None)
    np.testing.assert_array_equal(out, np.zeros(2))


# --- noisy least squares ---------------------------------------------------

def test_least_squares_split_is_disjoint_and_sized():
    prob = NoisyLeastSquares(n_samples=50, val_fraction=0.2)
    assert len(prob._train_idx) == 40
    assert len(prob._val_idx) == 10
    assert not set(prob._train_idx) & set(prob._val_idx)


def test_least_squares_exact_hvp_matches_fd():
    prob = NoisyLeastSquares(n_samples=32, dim=6)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(6)
    v = rng.standard_normal(6)
    hv = prob.hvp(x, v, None)
    # HVP of the train loss is (2/n) A^T A v; check against grad differences
    eps = 1e-6
    fd = (prob.eval_grad(x + eps * v, None) - prob.eval_grad(x - eps * v, None)) / (2 * eps)
    np.testing.assert_allclose(hv, fd, rtol=1e-6, atol=1e-8)


def test_least_squares_hvp_symmetry():
    prob = NoisyLeastSquares(n_samples=32, dim=6)
    rng = np.random.default_rng(4)
    x, u, v = rng.standard_normal((3, 6))
    assert abs(u @ prob.hvp(x, v, None) - v @ prob.hvp(x, u, None)) <= 1e-10


def test_least_squares_minibatch_hvp_uses_the_seeds_minibatch():
    # it used to multiply by the full training split's (2/n) A^T A at any
    # seed: 0.72 of the norm of the difference on the seed's minibatch away
    prob = NoisyLeastSquares(design_seed=3, n_samples=40, dim=6, batch_size=8)
    x, e0 = np.ones(6), np.eye(6)[0]
    stack, seeds = row_seeds(prob, (1, 2), 0, Channel.HESSIAN_NOISE)
    hv = prob.hvp(x, e0, seeds[0])
    cd = cd_reference(prob, x, e0, seeds[0])
    assert np.linalg.norm(hv - cd) <= 1e-8 * np.linalg.norm(cd)
    assert np.any(prob.hvp(x, e0, seeds[1]) != hv)
    X = np.stack([x, x + 0.5])
    V = np.eye(6).reshape(2, 3, 6)
    np.testing.assert_array_equal(
        prob.hvp(X, V, stack), np.stack([prob.hvp(X[r], V[r], seeds[r]) for r in range(2)]))


def test_least_squares_minibatch_depends_on_seed():
    prob = NoisyLeastSquares(n_samples=64, dim=8, batch_size=8)
    x = np.ones(8)
    g_full = prob.eval_grad(x, None)
    g1 = prob.eval_grad(x, BatchSeed(0, 0, Channel.GRADIENT))
    g2 = prob.eval_grad(x, BatchSeed(0, 1, Channel.GRADIENT))
    assert np.any(g1 != g2)
    assert np.any(g1 != g_full)
    # minibatch gradients average back to the full-batch one
    draws = np.array([prob.eval_grad(x, BatchSeed(0, k, Channel.GRADIENT))
                      for k in range(4000)])
    np.testing.assert_allclose(draws.mean(axis=0), g_full,
                               atol=6 * np.abs(g_full).max() / np.sqrt(4000))


def test_least_squares_batch_size_validation():
    with raises(ValueError):
        NoisyLeastSquares(n_samples=20, batch_size=0)
    with raises(ValueError):
        NoisyLeastSquares(n_samples=20, batch_size=17)  # > train rows


def test_least_squares_design_seed_reproducible():
    a = NoisyLeastSquares(design_seed=5)
    b = NoisyLeastSquares(design_seed=5)
    c = NoisyLeastSquares(design_seed=6)
    x = np.ones(a.dim)
    assert a.eval_loss(x, None) == b.eval_loss(x, None)
    assert a.eval_loss(x, None) != c.eval_loss(x, None)


# --- stacked hooks against one-point references -----------------------------

def rosenbrock_one_point(x, v):
    """Loss, gradient and exact HVP of one point, written with scalars."""
    a, b = x
    h11, h12 = 2.0 + 1200.0 * a * a - 400.0 * b, -400.0 * a
    return ((1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2,
            np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a * a), 200.0 * (b - a * a)]),
            np.array([h11 * v[0] + h12 * v[1], h12 * v[0] + 200.0 * v[1]]))


def least_squares_one_point(x, A, y):
    """Loss and gradient of one point on the batch (A, y)."""
    r = A @ x - y
    return np.mean(r * r), (2.0 / r.size) * (A.T @ r)


def test_rosenbrock_stacked_hooks_match_one_point_reference():
    prob = Rosenbrock2D()
    rng = np.random.default_rng(51)
    X = 3.0 * rng.standard_normal((4000, 2))
    V = rng.standard_normal((4000, 1, 2))
    losses, grads, hvps = prob._losses(X, None), prob._grads(X, None), prob._hvps(X, V, None)
    for x, v, loss, g, hv in zip(X, V, losses, grads, hvps):
        loss_ref, g_ref, hv_ref = rosenbrock_one_point(x, v[0])
        np.testing.assert_array_equal(g, g_ref)
        np.testing.assert_array_equal(hv[0], hv_ref)
        # the reference's numpy-scalar ** 2 calls pow, which may round the
        # other way; np.square is exact
        assert abs(loss - loss_ref) <= 2 * np.spacing(loss_ref)
        assert prob._losses(x, None) == loss


@pytest.mark.parametrize("batch_size", [None, 8])
def test_least_squares_stacked_hooks_match_one_point_reference(batch_size):
    prob = NoisyLeastSquares(design_seed=4, n_samples=50, dim=7, batch_size=batch_size)
    rng = np.random.default_rng(52)
    X = 10.0 ** rng.uniform(-3, 3, (3, 1)) * rng.standard_normal((3, prob.dim))
    V = rng.standard_normal((3, 2, prob.dim))
    data = prob._data(row_seeds(prob, (1, 2, 3), 0, Channel.GRADIENT)[0])
    # (R, 2 m, dim) points, as a central-difference block evaluates
    P = np.concatenate((X[:, None] + V, X[:, None] - V), axis=1)
    losses, grads = prob._losses(P, data), prob._grads(P, data)
    for r in range(len(X)):
        A, y = tuple(a[r] for a in data) if batch_size else data
        for j, p in enumerate(P[r]):
            loss_ref, g_ref = least_squares_one_point(p, A, y)
            assert losses[r, j] == loss_ref
            np.testing.assert_array_equal(grads[r, j], g_ref)
    A, _ = prob._train_data
    np.testing.assert_array_equal(
        prob._hvps(X, V, None),
        [[(2.0 / len(A)) * (A.T @ (A @ v)) for v in block] for block in V])


# --- mlp regression --------------------------------------------------------

def test_mlp_dimension():
    prob = MlpRegression()
    # (8,16,2): 8*16+16 weights+biases, then 16*2+2
    assert prob.dim == 8 * 16 + 16 + 16 * 2 + 2 == 178


def test_mlp_layer_sizes_validation():
    # a net needs a hidden layer; past that its depth is not capped
    for sizes in ((8, 2), (8,), ()):
        with raises(ValueError, match="at least one hidden layer"):
            MlpRegression(layer_sizes=sizes)
    with raises(ValueError, match="positive"):
        MlpRegression(layer_sizes=(8, 16, 0, 2))
    prob = MlpRegression(layer_sizes=(8, 16, 16, 16, 2), n_samples=16)
    assert prob.dim == 8 * 16 + 16 + 2 * (16 * 16 + 16) + 16 * 2 + 2


def test_mlp_gradient_matches_fd():
    prob = MlpRegression(n_samples=32)
    x = prob.default_init(np.random.default_rng(11))
    g = prob.eval_grad(x, None)
    rng = np.random.default_rng(12)
    idx = rng.choice(prob.dim, 10, replace=False)
    eps = 1e-6
    for i in idx:
        e = np.zeros(prob.dim)
        e[i] = eps
        fd = (prob.eval_loss(x + e, None) - prob.eval_loss(x - e, None)) / (2 * eps)
        assert abs(fd - g[i]) <= 1e-4 * max(1.0, abs(g[i]))


def test_mlp_hvp_symmetry():
    prob = MlpRegression(n_samples=32)
    rng = np.random.default_rng(13)
    x = prob.default_init(rng)
    u, v = rng.standard_normal((2, prob.dim))
    asym = abs(u @ prob.hvp(x, v, None) - v @ prob.hvp(x, u, None))
    assert asym <= 1e-6 * max(1.0, abs(u @ prob.hvp(x, v, None)))


def test_mlp_two_hidden_layers_supported():
    # and a third: the forward pass and backprop loop over the layers
    for sizes, dim in (((4, 8, 8, 2), 4 * 8 + 8 + 8 * 8 + 8 + 8 * 2 + 2),
                       ((4, 6, 5, 5, 2), 4 * 6 + 6 + 6 * 5 + 5 + 5 * 5 + 5 + 5 * 2 + 2)):
        prob = MlpRegression(layer_sizes=sizes, n_samples=32)
        assert prob.dim == dim
        x = prob.default_init(np.random.default_rng(0))
        g = prob.eval_grad(x, None)
        for i in (5, prob.dim - 7):
            e = np.zeros(prob.dim)
            e[i] = 1e-6
            fd = (prob.eval_loss(x + e, None) - prob.eval_loss(x - e, None)) / 2e-6
            assert abs(fd - g[i]) <= 1e-4 * max(1.0, abs(g[i]))


def test_mlp_val_loss_differs_from_train():
    prob = MlpRegression()
    x = prob.default_init(np.random.default_rng(2))
    assert prob.train_loss(x) != prob.val_loss(x)


def rowmajor_loss_and_grad(sizes, theta, X, Y):
    """Plain sample-major backprop for one point: X is (n, d_in), Y is
    (n, d_out). The reference for the oracle's feature-major kernels."""
    layers, off = [], 0
    for a, b in zip(sizes, sizes[1:]):
        w = theta[off:off + a * b].reshape(b, a)
        off += a * b
        layers.append((w, theta[off:off + b]))
        off += b
    outs = [X]
    for i, (w, b) in enumerate(layers):
        a = outs[-1] @ w.T + b
        outs.append(np.maximum(a, 0.0) if i < len(layers) - 1 else a)
    diff = outs[-1] - Y
    delta = (2.0 / len(X)) * diff
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        w, _ = layers[i]
        grads[:0] = [(delta.T @ outs[i]).ravel(), delta.sum(axis=0)]
        if i > 0:
            delta = (delta @ w) * (outs[i] > 0.0)
    return np.mean(np.sum(diff * diff, axis=1)), np.concatenate(grads)


@pytest.mark.parametrize("layer_sizes", [(8, 16, 2), (4, 6, 5, 2)])
@pytest.mark.parametrize("batch_size", [None, 16])
def test_mlp_kernels_match_rowmajor_reference(layer_sizes, batch_size):
    prob = MlpRegression(layer_sizes=layer_sizes, n_samples=128, batch_size=batch_size)
    rng = np.random.default_rng(41)
    T = np.stack([prob.default_init(rng) + 0.1 * rng.standard_normal(prob.dim)
                  for _ in range(3)])
    seeds = row_seeds(prob, (5, 6, 7), 2, Channel.GRADIENT)[0]
    data = prob._data(seeds)
    # a stack of minibatches has 3-d inputs, one (d, n) batch per row
    assert (data[0].ndim == 3) == (batch_size is not None)
    batches = [tuple(a[r] for a in data) if data[0].ndim == 3 else data
               for r in range(len(T))]
    G, L = prob.eval_grad(T, seeds), prob.eval_loss(T, seeds)
    splits = [(prob.train_loss(T), prob._train_data), (prob.val_loss(T), prob._val_data)]
    for r, (theta, (Xb, Yb)) in enumerate(zip(T, batches)):
        assert Xb.shape[0] == layer_sizes[0] and Yb.shape[0] == layer_sizes[-1]
        assert Xb.flags.c_contiguous and Yb.flags.c_contiguous
        loss_ref, g_ref = rowmajor_loss_and_grad(prob.sizes, theta, Xb.T, Yb.T)
        assert np.abs(G[r] - g_ref).max() <= 1e-12 * np.abs(g_ref).max()
        assert abs(L[r] - loss_ref) <= 1e-12 * loss_ref
        for losses, (Xs, Ys) in splits:
            split_ref, _ = rowmajor_loss_and_grad(prob.sizes, theta, Xs.T, Ys.T)
            assert abs(losses[r] - split_ref) <= 1e-12 * split_ref


# --- exact MLP HVP reference ------------------------------------------------

def rop_hvp(prob, theta, v, data):
    """Pearlmutter's R-operator: the exact product of the MLP loss's Hessian
    at one point theta with one direction v, on the feature-major batch
    data = (X, Y), in the oracle's parameter packing.

    The forward pass carries each layer's tangent R(z) along v, and
    backprop carries the tangent R(delta) of each delta. ReLU's second
    derivative is zero away from its kink, so its mask scales a tangent as
    it scales the primal.
    """
    layers, dirs = prob._unpack(theta), prob._unpack(v)
    X, Y = data
    zs, rzs, masks = [X], [np.zeros_like(X)], []
    for i, ((w, b), (dw, db)) in enumerate(zip(layers, dirs)):
        a = w @ zs[-1] + b[:, None]
        ra = dw @ zs[-1] + w @ rzs[-1] + db[:, None]
        if i < len(layers) - 1:
            masks.append(a > 0.0)
            a, ra = a * masks[-1], ra * masks[-1]
        zs.append(a)
        rzs.append(ra)
    n = X.shape[-1]
    delta, rdelta = (2.0 / n) * (zs[-1] - Y), (2.0 / n) * rzs[-1]
    parts = []
    for i in range(len(layers) - 1, -1, -1):
        (w, _), (dw, _) = layers[i], dirs[i]
        parts[:0] = [(rdelta @ zs[i].T + delta @ rzs[i].T).ravel(), rdelta.sum(axis=1)]
        if i > 0:
            delta, rdelta = ((w.T @ delta) * masks[i - 1],
                             (dw.T @ delta + w.T @ rdelta) * masks[i - 1])
    return np.concatenate(parts)


def hidden_signs(prob, theta, X):
    """The sign pattern a > 0 of every hidden pre-activation at theta."""
    z, signs = X, []
    for w, b in prob._unpack(theta)[:-1]:
        a = w @ z + b[:, None]
        signs.append(a > 0.0)
        z = a * signs[-1]
    return signs


def crosses_a_kink(prob, theta, step, X):
    """Whether a hidden pre-activation changes sign between theta +- step,
    where the gradient jumps and a difference of gradients is no HVP."""
    return any(np.any(p != m) for p, m in zip(hidden_signs(prob, theta + step, X),
                                                hidden_signs(prob, theta - step, X)))


@pytest.mark.parametrize("layer_sizes", [(3, 4, 2), (3, 5, 4, 2)])
def test_rop_matches_a_dense_difference_hessian(layer_sizes):
    prob = MlpRegression(layer_sizes=layer_sizes, n_samples=64)
    rng = np.random.default_rng(61)
    theta = prob.default_init(rng) + 0.1 * rng.standard_normal(prob.dim)
    eye = np.eye(prob.dim)
    H = np.stack([rop_hvp(prob, theta, e, prob._train_data) for e in eye])
    scale = np.abs(H).max()
    # the detector fires: every pre-activation is 0 at theta - theta
    X = prob._train_data[0]
    assert crosses_a_kink(prob, theta, theta, X)
    assert not crosses_a_kink(prob, theta, 0.0 * theta, X)
    assert np.abs(H - H.T).max() <= 1e-14 * scale
    eps, checked = 1e-5, 0
    for j, e in enumerate(eye):
        if crosses_a_kink(prob, theta, eps * e, X):
            continue
        col = (prob.eval_grad(theta + eps * e) - prob.eval_grad(theta - eps * e)) / (2 * eps)
        assert np.abs(col - H[:, j]).max() <= 1e-8 * scale
        checked += 1
    assert checked >= prob.dim // 2


@pytest.mark.parametrize("layer_sizes", [(3, 4, 2), (3, 5, 4, 2), (8, 16, 2)])
@pytest.mark.parametrize("batch_size", [None, 32])
def test_mlp_hvp_matches_the_rop(layer_sizes, batch_size):
    prob = MlpRegression(layer_sizes=layer_sizes, n_samples=128, batch_size=batch_size)
    rng = np.random.default_rng(62)
    X = np.stack([prob.default_init(rng) + 0.1 * rng.standard_normal(prob.dim)
                  for _ in range(4)])
    V = rng.standard_normal((4, 3, prob.dim))
    stack, seeds = row_seeds(prob, range(4), 2, Channel.HESSIAN_NOISE)
    out = prob.hvp(X, V, stack)
    checked = 0
    for x, block, seed, products in zip(X, V, seeds, out):
        data = prob._data(seed)
        for v, hv in zip(block, products):
            # the oracle's displacement along v
            h = _HVP_STEP_SCALE * (1.0 + np.linalg.norm(x)) / np.linalg.norm(v)
            if crosses_a_kink(prob, x, h * v, data[0]):
                continue
            ref = rop_hvp(prob, x, v, data)
            assert np.linalg.norm(hv - ref) <= 1e-8 * np.linalg.norm(ref)
            checked += 1
    assert checked >= V.shape[0] * V.shape[1] // 2


# --- probe blocks ----------------------------------------------------------

def cd_reference(problem, x, v, seed):
    """Central difference of two single-point gradient calls, per direction,
    on the seed's minibatch. No HVP reads gradient noise, so at full batch
    the calls take no seed."""
    if problem.batch_size is None:
        seed = None
    v_norm = float(np.linalg.norm(v))
    if v_norm == 0.0:
        return np.zeros_like(x)
    h = _HVP_STEP_SCALE * (1.0 + float(np.linalg.norm(x))) / (v_norm + 1e-300)
    return (problem.eval_grad(x + h * v, seed) - problem.eval_grad(x - h * v, seed)) / (2.0 * h)


@pytest.mark.parametrize("layer_sizes, kwargs", [
    ((8, 16, 2), {}),
    ((8, 16, 2), {"batch_size": 32}),
    ((8, 16, 2), {"noise_std_grad": 0.1}),
    ((4, 8, 8, 2), {"batch_size": 32}),
    ((4, 8, 8, 2), {"noise_std_grad": 0.1}),
], ids=["full_batch", "minibatch", "grad_noise", "two_hidden", "two_hidden_noise"])
def test_mlp_block_hvp_equals_row_by_row(layer_sizes, kwargs):
    prob = MlpRegression(layer_sizes=layer_sizes, n_samples=128, **kwargs)
    rng = np.random.default_rng(21)
    x = prob.default_init(rng)
    V = rng.standard_normal((4, prob.dim))
    seed = BatchSeed(7, 3, Channel.HESSIAN_NOISE)
    block = prob.hvp(x, V, seed)
    rows = np.stack([prob.hvp(x, v, seed) for v in V])
    np.testing.assert_array_equal(block, rows)
    np.testing.assert_array_equal(
        rows, np.stack([cd_reference(prob, x, v, seed) for v in V]))


def test_mlp_block_hvp_with_a_zero_probe_row(monkeypatch):
    for draw in ({"batch_size": 32}, {"noise_std_grad": 0.1}):
        prob = MlpRegression(n_samples=128, **draw)
        rng = np.random.default_rng(22)
        x = prob.default_init(rng)
        V = (rng.integers(0, 2, size=(4, prob.dim)) * 2 - 1).astype(np.float64)
        V[1] = 0.0
        seed = BatchSeed(7, 4, Channel.HESSIAN_NOISE)
        block = prob.hvp(x, V, seed)
        np.testing.assert_array_equal(block[1], np.zeros(prob.dim))
        np.testing.assert_array_equal(block, np.stack([prob.hvp(x, v, seed) for v in V]))
        np.testing.assert_array_equal(prob.hvp(x, np.zeros((2, prob.dim)), seed),
                                      np.zeros((2, prob.dim)))
        # a stack with an all-zero block and zero rows: one stacked gradient
        # pass, and every zero direction's product is +0.0
        X = np.stack([x, prob.default_init(rng), prob.default_init(rng)])
        W = np.stack([np.zeros_like(V), V, V[::-1]])
        stack, seeds = row_seeds(prob, (7, 8, 9), 4, Channel.HESSIAN_NOISE)
        calls = []
        grads = prob._grads
        monkeypatch.setattr(prob, "_grads", lambda *a: calls.append(1) or grads(*a))
        stacked = prob.hvp(X, W, stack)
        assert len(calls) == 1
        zero = np.stack([stacked[0, 0], stacked[1, 1], stacked[2, 2]])
        np.testing.assert_array_equal(zero, 0.0)
        assert not np.signbit(zero).any() and not np.signbit(stacked[0]).any()
        np.testing.assert_array_equal(
            stacked, np.stack([prob.hvp(xr, Vr, s) for xr, Vr, s in zip(X, W, seeds)]))


def test_least_squares_block_hvp_equals_row_by_row():
    for draw in ({"batch_size": 8}, {"noise_std_grad": 0.05}):
        prob = CentralLeastSquares(n_samples=40, dim=6, **draw)
        rng = np.random.default_rng(23)
        x = rng.standard_normal(6)
        V = rng.standard_normal((3, 6))
        seed = BatchSeed(1, 0, Channel.HESSIAN_NOISE)
        np.testing.assert_array_equal(
            prob.hvp(x, V, seed), np.stack([cd_reference(prob, x, v, seed) for v in V]))


def test_block_hvp_rejects_bad_directions():
    prob = MlpRegression(n_samples=32)
    x = prob.default_init(np.random.default_rng(0))
    for bad in (np.zeros((2, prob.dim - 1)), np.zeros((1, 2, prob.dim)),
                np.zeros((0, prob.dim)), np.full((2, prob.dim), np.nan)):
        with raises(ValueError):
            prob.hvp(x, bad, None)


def test_hvp_rejects_a_hook_result_in_the_wrong_layout(monkeypatch):
    # the right number of entries, transposed: reshaping it to V's shape
    # would read [[0, 3, 2], [8, 8, 20]] instead of h * V
    monkeypatch.setattr(Quadratic, "_hvps",
                        lambda self, x, V, seed: (self.h * V).swapaxes(-1, -2))
    prob = Quadratic([1.0, 2.0, 4.0])
    with raises(ValueError, match="hvp hook returned shape"):
        prob.hvp(np.ones(3), np.arange(6.0).reshape(2, 3))


def test_block_hvp_of_a_nonfinite_point_is_nonfinite():
    # x +- h v overflows; that is blow-up, so the products carry it as NaN
    prob = MlpRegression(n_samples=32)
    x = np.full(prob.dim, 1e300)
    V = np.ones((2, prob.dim))
    with np.errstate(over="ignore", invalid="ignore"):
        out = prob.hvp(x, V, None)
    assert out.shape == V.shape and not np.isfinite(out).any()


# --- stacks of points ------------------------------------------------------

STACK_PROBLEMS = {
    "quadratic-noise": lambda: Quadratic(np.array([1.0, 2.0, 4.0]), noise_std_grad=0.1),
    "rosenbrock-cd": lambda: CentralRosenbrock(noise_std_grad=0.01),
    "rosenbrock-exact": lambda: Rosenbrock2D(noise_std_grad=0.01),
    "least_squares-minibatch": lambda: CentralLeastSquares(
        design_seed=3, n_samples=40, dim=6, batch_size=8),
    "least_squares-noise": lambda: CentralLeastSquares(
        design_seed=3, n_samples=40, dim=6, noise_std_grad=0.05),
    "least_squares-exact": lambda: NoisyLeastSquares(
        design_seed=3, n_samples=40, dim=6, noise_std_grad=0.05),
    "least_squares-exact-minibatch": lambda: NoisyLeastSquares(
        design_seed=3, n_samples=40, dim=6, batch_size=8),
    "mlp-full": lambda: MlpRegression(n_samples=128),
    "mlp-full-noise": lambda: MlpRegression(n_samples=128, noise_std_grad=0.1),
    "mlp-minibatch": lambda: MlpRegression(n_samples=128, batch_size=32),
    "mlp-two-hidden-minibatch": lambda: MlpRegression(layer_sizes=(4, 6, 5, 2),
                                                      n_samples=128, batch_size=16),
    "mlp-three-hidden-minibatch": lambda: MlpRegression(layer_sizes=(4, 6, 5, 5, 2),
                                                        n_samples=128, batch_size=16),
}


@pytest.mark.parametrize("case", sorted(STACK_PROBLEMS))
def test_stacked_oracle_equals_row_by_row(case):
    prob = STACK_PROBLEMS[case]()
    rng = np.random.default_rng(31)
    X = np.stack([prob.default_init(rng) + 0.1 * rng.standard_normal(prob.dim)
                  for _ in range(3)])
    V = rng.standard_normal((3, 2, prob.dim))
    gstack, gseeds = row_seeds(prob, (11, 12, 13), 4, Channel.GRADIENT)
    hstack, hseeds = row_seeds(prob, (11, 12, 13), 4, Channel.HESSIAN_NOISE)

    def rows(fn, *args):
        return np.stack([fn(*row) for row in zip(*args)])

    np.testing.assert_array_equal(prob.eval_grad(X, gstack), rows(prob.eval_grad, X, gseeds))
    np.testing.assert_array_equal(prob.eval_grad(X), rows(prob.eval_grad, X))
    np.testing.assert_array_equal(prob.eval_loss(X, gstack), rows(prob.eval_loss, X, gseeds))
    np.testing.assert_array_equal(prob.train_loss(X), rows(prob.train_loss, X))
    np.testing.assert_array_equal(prob.val_loss(X), rows(prob.val_loss, X))
    np.testing.assert_array_equal(prob.hvp(X, V, hstack), rows(prob.hvp, X, V, hseeds))
    np.testing.assert_array_equal(prob.hvp(X, V[:, 0], hstack),
                                  rows(prob.hvp, X, V[:, 0], hseeds))


@pytest.mark.parametrize("case", sorted(STACK_PROBLEMS))
def test_grad_and_train_loss_equals_the_separate_calls(case, monkeypatch):
    prob = STACK_PROBLEMS[case]()
    rng = np.random.default_rng(33)
    X = np.stack([prob.default_init(rng) + 0.1 * rng.standard_normal(prob.dim)
                  for _ in range(3)])
    stack, seeds = row_seeds(prob, (21, 22, 23), 5, Channel.GRADIENT)
    for x, seed in ((X[0], seeds[0]), (X[0], None), (X, stack), (X, None)):
        g, loss = prob.grad_and_train_loss(x, seed)
        np.testing.assert_array_equal(g, prob.eval_grad(x, seed))
        np.testing.assert_array_equal(loss, prob.train_loss(x))
        assert type(loss) is type(prob.train_loss(x))
    if isinstance(prob, MlpRegression) and prob.batch_size is None:
        # at full batch one forward pass serves the gradient and the loss
        calls = []
        forward = prob._forward
        monkeypatch.setattr(prob, "_forward", lambda *a: calls.append(1) or forward(*a))
        prob.grad_and_train_loss(X, stack)
        assert len(calls) == 1


def test_mlp_workspace_calls_equal_a_fresh_oracle():
    def make():
        return MlpRegression(layer_sizes=(4, 6, 5, 2), n_samples=96, batch_size=24)

    prob = make()
    rng = np.random.default_rng(34)
    X = np.stack([prob.default_init(rng) for _ in range(5)])
    V = rng.standard_normal((5, 2, prob.dim))

    def seeds(n, channel=Channel.GRADIENT):
        return row_seeds(prob, range(n), 1, channel)[0]

    calls = [  # interleaved stack shapes (5,), (5, 2), (3,) and a lone point
        lambda p: p.eval_grad(X, seeds(5)),
        lambda p: p.hvp(X, V, seeds(5, Channel.HESSIAN_NOISE)),
        lambda p: p.grad_and_train_loss(X[:3], seeds(3)),
        lambda p: p.eval_grad(X[4], BatchSeed(9, 1, Channel.GRADIENT)),
        lambda p: p.val_loss(X),
        lambda p: p.grad_and_train_loss(X[1]),
        lambda p: p.eval_loss(X[:3], seeds(3)),
        lambda p: p.eval_grad(X, seeds(5)),
    ]
    for call in calls:
        got, fresh = call(prob), call(make())
        if not isinstance(got, tuple):
            got, fresh = (got,), (fresh,)
        for out, ref in zip(got, fresh):
            np.testing.assert_array_equal(out, ref)
            assert not any(np.shares_memory(out, buf) for buf in prob._workspace.values())
    # results the caller mutates do not reach the next call
    g, loss = prob.grad_and_train_loss(X, seeds(5))
    g[...] = np.nan
    loss[...] = np.nan
    g2, loss2 = prob.grad_and_train_loss(X, seeds(5))
    np.testing.assert_array_equal(g2, make().eval_grad(X, seeds(5)))
    np.testing.assert_array_equal(loss2, make().train_loss(X))
    # each backprop delta lands in the activation buffer it last reads, so
    # the workspace holds activations only; with two hidden layers the
    # in-place deltas equal an out-of-place backprop bit for bit
    assert {role for role, _ in prob._workspace} == {"act"}
    lone = BatchSeed(0, 1, Channel.GRADIENT)
    for data in (prob._train_data, prob._data(seeds(5)), prob._data(lone)):
        for theta in (X, X[2]):
            if data[0].ndim == 3 and theta.ndim == 1:
                continue
            np.testing.assert_array_equal(prob._grads(theta, data),
                                          out_of_place_grads(prob, theta, data))


def out_of_place_grads(prob, theta, data):
    """MlpRegression's backprop with a fresh array for every delta."""
    layers, outs, diff = prob._pass(theta, data)
    outs = [o.copy() for o in outs]
    delta = (2.0 / diff.shape[-1]) * diff
    grads = []
    for i in range(len(layers) - 1, -1, -1):
        gw = delta @ outs[i].swapaxes(-1, -2)
        grads[:0] = [gw.reshape(gw.shape[:-2] + (-1,)), delta.sum(axis=-1)]
        if i > 0:
            delta = np.matmul(layers[i][0].swapaxes(-1, -2), delta) * (outs[i] > 0.0)
    return np.concatenate(grads, axis=-1)


def test_stacked_hvp_with_a_zero_probe_row():
    for draw in ({"batch_size": 32}, {"noise_std_grad": 0.1}):
        prob = MlpRegression(n_samples=128, **draw)
        rng = np.random.default_rng(32)
        X = np.stack([prob.default_init(rng) for _ in range(2)])
        V = rng.standard_normal((2, 3, prob.dim))
        V[1, 2] = 0.0
        stack, seeds = row_seeds(prob, (1, 2), 0, Channel.HESSIAN_NOISE)
        block = prob.hvp(X, V, stack)
        np.testing.assert_array_equal(block[1, 2], np.zeros(prob.dim))
        np.testing.assert_array_equal(
            block, np.stack([prob.hvp(x, v, s) for x, v, s in zip(X, V, seeds)]))


def test_stack_validation():
    prob = MlpRegression(n_samples=32)
    X = np.zeros((2, prob.dim))
    seed = BatchSeed(0, 0, Channel.GRADIENT)
    one_row = StackSeed(np.zeros((1, 1)), 0, [0])
    for bad_call in (lambda: prob.eval_grad(X, seed),          # one seed, two points
                     lambda: prob.eval_grad(X, one_row),       # stack rows
                     lambda: prob.eval_grad(X, [seed, seed]),  # a list of seeds
                     lambda: prob.eval_grad(X[0], one_row),    # a stack seed for a point
                     lambda: prob.train_loss(np.full((2, prob.dim), np.inf)),
                     lambda: prob.eval_grad(np.zeros((2, prob.dim + 1))),
                     lambda: prob.eval_grad(np.zeros((2, 2, prob.dim))),
                     lambda: prob.eval_grad(np.zeros((0, prob.dim))),
                     lambda: prob.hvp(X, np.ones((3, 1, prob.dim)))):
        with raises(ValueError):
            bad_call()


# --- factory ---------------------------------------------------------------

def test_make_problem_kinds():
    assert isinstance(make_problem("quadratic", h=[1.0]), Quadratic)
    assert isinstance(make_problem("rosenbrock"), Rosenbrock2D)
    assert isinstance(make_problem("noisy_least_squares"), NoisyLeastSquares)
    assert isinstance(make_problem("mlp_regression"), MlpRegression)
    with raises(ValueError):
        make_problem("simulated_annealing")


@pytest.mark.parametrize("kind, params", [
    ("noisy_least_squares", dict(n_samples=40.9)),
    ("noisy_least_squares", dict(dim=6.5)),
    ("noisy_least_squares", dict(batch_size=8.7)),
    ("noisy_least_squares", dict(design_seed=1.5)),
    ("mlp_regression", dict(layer_sizes=(8.9, 16.5, 2))),
    ("mlp_regression", dict(n_samples=64.9)),
    ("mlp_regression", dict(batch_size=7.5)),
    ("mlp_regression", dict(teacher_seed=float("nan"))),
])
def test_constructors_reject_fractional_counts(kind, params):
    # int() used to truncate: n_samples 40.9 built 40 samples
    with raises(ValueError, match=next(iter(params))):
        make_problem(kind, **params)


def test_constructors_read_integral_floats_as_ints():
    ls = NoisyLeastSquares(design_seed=3.0, n_samples=40.0, dim=6.0, batch_size=8.0)
    ref = NoisyLeastSquares(design_seed=3, n_samples=40, dim=6, batch_size=8)
    np.testing.assert_array_equal(ls.A, ref.A)
    assert (ls.dim, ls.batch_size) == (6, 8) and type(ls.batch_size) is int
    mlp = MlpRegression(layer_sizes=(8.0, 16.0, 2.0), teacher_seed=1.0, n_samples=64.0,
                        batch_size=8.0)
    assert mlp.sizes == [8, 16, 2] and mlp.batch_size == 8
    np.testing.assert_array_equal(mlp.X, MlpRegression(teacher_seed=1, n_samples=64).X)


def test_as_integer():
    assert as_integer(3.0, "n") == 3 and type(as_integer(3.0, "n")) is int
    assert as_integer(np.int64(4), "n") == 4
    for bad in (3.9, np.float64(2.5), float("inf"), float("nan")):
        with raises(ValueError, match="n must be an integer"):
            as_integer(bad, "n")
    assert as_integer(np.float32(6.0), "n") == 6 and type(as_integer(np.int8(2), "n")) is int
    for bad in ("12", "3.0", True, False, np.bool_(True), None, [3], 3 + 0j):
        with raises(ValueError, match="n must be an integer"):
            as_integer(bad, "n")


def test_as_real():
    for good in (0.5, 2, np.float32(0.25), np.int64(3), float("inf")):
        value = as_real(good, "x")
        assert value == float(good) and type(value) is float
    for bad in (True, False, np.bool_(True), "0.1", None, [0.1], 1 + 0j):
        with raises(ValueError, match="x must be a real number"):
            as_real(bad, "x")


@pytest.mark.parametrize("kind, key", [("noisy_least_squares", "noise_std"),
                                       ("mlp_regression", "label_noise_std")])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
def test_constructors_reject_bad_data_noise(kind, key, value):
    # NaN noise built NaN targets and an inf one an inf train loss
    params = {**SMALL_KINDS[kind], key: value}
    with raises(ValueError, match=f"{key} must be finite and >= 0"):
        make_problem(kind, **params)
    params[key] = 0.0
    prob = make_problem(kind, **params)
    assert np.isfinite(prob.train_loss(np.zeros(prob.dim)))


SMALL_KINDS = {
    "quadratic": dict(h=[1.0, 2.0]),
    "rosenbrock": {},
    "noisy_least_squares": dict(dim=3, n_samples=10),
    "mlp_regression": dict(layer_sizes=(2, 3, 1), n_samples=8),
}


@pytest.mark.parametrize("kind", sorted(SMALL_KINDS))
def test_constructors_validate_oracle_numerics(kind):
    # a negative noise level would silently mean no noise
    for value in (-0.1, float("nan"), float("inf")):
        with raises(ValueError, match="noise_std_grad"):
            make_problem(kind, **SMALL_KINDS[kind], noise_std_grad=value)
    prob = make_problem(kind, **SMALL_KINDS[kind], noise_std_grad=0)
    assert prob.noise_std_grad == 0.0 and isinstance(prob.noise_std_grad, float)


@pytest.mark.parametrize("kind", ["noisy_least_squares", "mlp_regression"])
def test_sample_based_kinds_reject_a_minibatch_with_gradient_noise(kind):
    # a minibatch is a sample-based kind's gradient noise: each stream draws
    # one or the other, never both
    with raises(ValueError, match="batch_size and noise_std_grad"):
        make_problem(kind, **SMALL_KINDS[kind], batch_size=4, noise_std_grad=0.05)
    for draw in ({"batch_size": 4}, {"noise_std_grad": 0.05},
                 {"batch_size": 4, "noise_std_grad": 0.0}):
        prob = make_problem(kind, **SMALL_KINDS[kind], **draw)
        assert (prob.batch_size, prob.noise_std_grad) == (draw.get("batch_size"),
                                                          draw.get("noise_std_grad", 0.0))


@pytest.mark.parametrize("kind", sorted(SMALL_KINDS))
def test_constructors_reject_the_removed_hvp_knobs(kind):
    # every kind has one HVP; a setting that used to choose another is an
    # unknown argument, not a silently ignored one
    for knob, value in (("hvp_mode", "exact"), ("hvp_mode", "central_difference"),
                        ("hvp_step_scale", 1e-5)):
        with raises(TypeError, match=knob):
            make_problem(kind, **SMALL_KINDS[kind], **{knob: value})
