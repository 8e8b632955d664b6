"""Synthetic optimization problems with loss, gradient, and Hessian-vector
oracles, plus the seeded noise channels that drive them.

Every source of randomness flows through a :class:`BatchSeed`, a
(base_seed, step_index, channel) triple that maps to one deterministic draw.
Gradient noise, Hessian-probe noise, and probe vectors live on separate
channels so they are mutually independent at every step. A stack of points
reads its draws from a table filled ahead (`Draw.table`), whose every
entry is the draw of its own BatchSeed: a seed of either kind hands over
draws through `draws`, and an oracle does not ask how they were made.

Problem kinds
-------------
quadratic            f(x) = 0.5 * sum_i h_i x_i^2, h_i > 0, minimum at 0
rosenbrock           f(x, y) = (1 - x)^2 + 100 (y - x^2)^2, minimum at (1, 1)
noisy_least_squares  f(x) = (1/n) ||A x - y||^2 over a fixed noisy dataset
mlp_regression       small ReLU network regressed onto a frozen teacher

The first two are deterministic; the last two are sample-based and support a
train/validation split and optional mini-batching. At full batch, every kind
instead supports an additive i.i.d. Gaussian gradient-noise channel
(noise_std_grad), which realizes mini-batch-style noise without literal
subsampling; a sample-based kind takes one or the other, never both. So each
stream an oracle reads draws one thing: a minibatch's indices, or the
gradient noise. Neither a loss nor an HVP reads the noise.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_SEED_MASK = (1 << 64) - 1
_TINY = 1e-300
# a central-difference step displaces x by _HVP_STEP_SCALE (1 + ||x||)
_HVP_STEP_SCALE = 1e-5


class Channel(enum.IntEnum):
    """Independent per-step streams: the gradient's minibatch or noise, the
    HVP's minibatch (HESSIAN_NOISE) and the probe block. Each value is a
    spawn-key word."""

    GRADIENT = 0
    HESSIAN_NOISE = 1
    PROBE = 2


@dataclass(frozen=True)
class BatchSeed:
    """Address of one deterministic noise draw.

    Identical (base_seed, step_index, channel) triples always yield identical
    draws: the PCG64 stream that numpy's SeedSequence(entropy=base_seed,
    spawn_key=(step_index, channel)) seeds. This is what makes runs
    replayable, and it lets the central-difference HVP draw one minibatch
    per probe block, shared by every gradient it evaluates, so the sampling
    noise cancels in each difference. Oracles draw only when they sample a
    minibatch or add gradient noise; a full-batch, noise-free oracle never
    calls `draws`. A stack of points takes a StackSeed instead.

    `words`, when given, are the stream's four PCG64 seed words, a row of
    `stream_states`, so the triple is not hashed again. They are not part
    of the address, so they take no part in equality or hashing. A seed
    without them hashes its triple through SeedSequence, the reference the
    words are tested against.
    """

    base_seed: int
    step_index: int
    channel: Channel
    words: np.ndarray | None = field(default=None, compare=False, repr=False)

    def rng(self) -> np.random.Generator:
        if self.words is not None:
            return np.random.Generator(np.random.PCG64(_SeedWords(self.words)))
        ss = np.random.SeedSequence(
            entropy=self.base_seed & _SEED_MASK,
            spawn_key=(int(self.step_index), int(self.channel)),
        )
        return np.random.default_rng(ss)

    def draws(self, draw):
        """draw(rng) on this seed's stream: its one draw."""
        return draw(self.rng())


class StackSeed:
    """The draws of an (R, dim) stack at one step and channel.

    `table` holds the channel's draws made ahead, one per (replicate, step)
    (see `Draw.table`), and row r reads entry (rows[r], step_index). A
    sweep stage's rows are lr-major tiles of its replicates, so rows starts
    as np.tile(arange(n_seeds), n_lrs) and loses the rows that leave the
    stack."""

    def __init__(self, table, step_index, rows):
        self.table, self.step_index = table, step_index
        self.rows = np.asarray(rows).astype(np.intp, casting="safe", copy=False)
        if self.rows.ndim != 1 or not set(self.rows.tolist()) <= set(range(len(table))):
            raise ValueError(f"stack rows must index the table's {len(table)} replicates")
        if not 0 <= step_index < table.shape[1]:
            raise ValueError(f"a table of {table.shape[1]} steps has no "
                             f"step index {step_index}")

    def __len__(self):
        return len(self.rows)

    def draws(self, draw):
        """The rows' draws, one per row, read from the table: `draw` is the
        one that filled it."""
        return self.table[self.rows, self.step_index]


class Draw(NamedTuple):
    """One stream's draw as a table stores it: fn(rng) gives an entry of
    `shape`, which `dtype` holds exactly."""

    fn: Callable
    shape: tuple
    dtype: type

    def table(self, bases, steps, channel, words) -> np.ndarray:
        """The (len(bases), len(steps)) + shape array whose entry (i, j) is
        BatchSeed(bases[i], steps[j], channel).draws(fn), the draw a lone
        seed makes. words is the stream_states table of bases at steps."""
        table = np.empty((len(bases), len(steps)) + self.shape, self.dtype)
        for i, j in np.ndindex(table.shape[:2]):
            table[i, j] = BatchSeed(bases[i], steps[j], channel,
                                    words[i, j, channel]).draws(self.fn)
        return table


class _SeedWords(ISeedSequence):
    """Hands PCG64 its seed words as already derived, in place of the
    SeedSequence that would hash them."""

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 asks for 4 uint64 words and reads their buffer directly,
        # so they must be contiguous
        return np.ascontiguousarray(self.words, dtype=np.uint64)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the pool of
# 4 uint32 words, its hashmix and mix multipliers, and the right shift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_consts(init, mult):
    """SeedSequence's running hash constant, as the (before, after) pair of
    each successive hashmix."""
    h = init
    while True:
        after = h * mult & _MASK32
        yield np.uint32(h), np.uint32(after)
        h = after


def _hashmix(value, consts):
    """SeedSequence's hashmix on a uint32 array, at the next constants."""
    before, after = next(consts)
    value = (value ^ before) * after
    return value ^ (value >> 16)


def _mix(x, y):
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> 16)


def stream_states(bases, steps) -> np.ndarray:
    """The PCG64 seed words of every (base, step, channel) stream at once.

    Entry [i, j, c] equals SeedSequence(entropy=bases[i] & (2**64 - 1),
    spawn_key=(steps[j], c)).generate_state(4, np.uint64), the words
    BatchSeed(bases[i], steps[j], c).rng() seeds its generator from: an
    exact vectorized port of numpy's hash, returned as one
    (len(bases), len(steps), len(Channel), 4) uint64 array. The entropy is
    the base's two 32-bit words padded with zeros to the pool size of 4,
    as SeedSequence pads it whenever there is a spawn key, so every base
    hashes through the same layout. A step outside [0, 2**32) is a
    ValueError: SeedSequence would split it into two words. For one triple
    this costs more than SeedSequence itself; it pays off for a whole
    stack's steps at once.
    """
    bases = [operator.index(b) & _SEED_MASK for b in bases]
    steps = [operator.index(k) for k in steps]
    if any(not 0 <= k <= _MASK32 for k in steps):
        raise ValueError("stream steps must be in [0, 2**32)")
    consts = _hash_consts(_INIT_A, _MULT_A)
    entropy = [np.array([b & _MASK32 for b in bases], dtype=np.uint32),
               np.array([b >> 32 for b in bases], dtype=np.uint32)]
    entropy += [np.zeros(len(bases), dtype=np.uint32)] * (_POOL_SIZE - 2)
    pool = [_hashmix(w, consts) for w in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    # each spawn-key word mixes into every pool word and adds an axis:
    # (bases,) -> (bases, steps) -> (bases, steps, channels)
    for key in (np.array(steps, dtype=np.uint32),
                np.arange(len(Channel), dtype=np.uint32)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst][..., None], _hashmix(key, consts))
    consts = _hash_consts(_INIT_B, _MULT_B)
    out = np.empty(pool[0].shape + (8,), dtype=np.uint32)
    for i in range(8):
        out[..., i] = _hashmix(pool[i % _POOL_SIZE], consts)
    # generate_state's own pairing of its uint32 words into uint64 words
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def as_params(x) -> np.ndarray:
    """Validate and return a parameter vector as a 1-d float64 array.

    Raises ValueError for empty, non-1-d, or non-finite input.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("parameter vector must be 1-d and nonempty")
    if not np.all(np.isfinite(x)):
        raise ValueError("parameter vector has non-finite entries")
    return x


def as_integer(value, name) -> int:
    """A count or seed as an int. Integers (numpy's too) pass and an
    integral float (3.0) reads as 3; a fractional or non-finite float, a
    bool, a string or any other type is an error, not a silent conversion."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not isinstance(value, numbers.Integral) and not float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name) -> float:
    """A real number as a float. As for `as_integer`, a bool, a string or
    any other type is an error, not a silent conversion: a JSON config's
    true would otherwise run as 1.0."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_scale(value, name) -> float:
    """A noise standard deviation as a float; a bool, NaN, inf and negative
    values are errors."""
    value = as_real(value, name)
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


class ProblemOracle:
    """Common interface: eval_loss / eval_grad / hvp plus split evaluation.

    Every public method takes one point x of shape (dim,) with a BatchSeed,
    or a stack of R points of shape (R, dim) with a StackSeed of R rows,
    and each row draws exactly the minibatch and noise it would draw alone.
    Passing seed=None gives the noise-free full-batch value.

    A kind writes each clean quantity once, for points with any leading
    axes: `_losses(xs, data)` -> xs.shape[:-1], `_grads(xs, data)` ->
    xs.shape, and `_hvps(x, V, seed)`, the products of the Hessian at each
    point of x with its (..., n, dim) block of directions V. `data` is the
    training split, a sampled minibatch, or a stack of minibatches with one
    per entry of the first axis (None for the deterministic kinds). Each
    slice of a result equals the value of its lone point bit for bit.
    `_losses_and_grads` may be overridden where one pass yields both. The
    base `_hvps` central-differences the clean gradient; a kind with an
    analytic product overrides it. Either reads the seed only for its
    minibatch: only eval_grad and grad_and_train_loss add gradient noise.
    """

    kind = "?"
    dim = 0
    noise_std_grad = 0.0
    batch_size = None
    _train_data = None
    _val_data = None

    # -- public oracle surface -------------------------------------------

    def eval_loss(self, x, seed=None):
        x = self._check(x, seed)
        return _per_row(self._losses(x, self._data(seed)))

    def eval_grad(self, x, seed=None) -> np.ndarray:
        x = self._check(x, seed)
        return self._noisy(self._grads(x, self._data(seed)), seed)

    def grad_and_train_loss(self, x, seed=None):
        """(eval_grad(x, seed), train_loss(x)), equal to the two calls bit
        for bit.

        When the draw's data is the training split (full batch, with or
        without gradient noise), one pass yields both.
        """
        x = self._check(x, seed)
        data = self._data(seed)
        if data is self._train_data:
            losses, g = self._losses_and_grads(x, data)
        else:
            g = self._grads(x, data)
            losses = self._losses(x, self._train_data)
        return self._noisy(g, seed), _per_row(losses)

    def hvp(self, x, v, seed=None) -> np.ndarray:
        """Hessian-vector products at x for one direction or a probe block.

        For one point, v is a (dim,) vector or an (n_probes, dim) block of
        row directions; a stack of R points takes one such vector or block
        per point, (R, dim) or (R, n_probes, dim). The result has v's shape
        and holds the product of each direction with the Hessian at its
        point, from the kind's `_hvps` hook: analytic where the kind has a
        closed form, central differences of the gradient otherwise (see
        `_hvps`). The hook must return its block's (..., n, dim) shape; any
        other shape is a ValueError, not a silent reshape.
        """
        x = self._check(x, seed)
        V = np.asarray(v, dtype=np.float64)
        if (V.ndim not in (x.ndim, x.ndim + 1) or V.size == 0
                or V.shape[:x.ndim - 1] != x.shape[:-1]):
            raise ValueError("hvp direction must be a nonempty vector or block per point")
        if V.shape[-1] != self.dim:
            raise ValueError(f"hvp direction has dim {V.shape[-1]}, oracle dim {self.dim}")
        if not np.all(np.isfinite(V)):
            raise ValueError("hvp direction has non-finite entries")
        block = V if V.ndim == x.ndim + 1 else V[..., None, :]
        out = self._hvps(x, block, seed)
        if out.shape != block.shape:
            raise ValueError(f"hvp hook returned shape {out.shape} for a "
                             f"{block.shape} direction block")
        return out.reshape(V.shape)

    def _data(self, seed):
        """The data of `seed`'s draw: the training split at full batch or
        for seed=None, else the minibatch of each row, every row's samples
        gathered in one pass."""
        if seed is None or self.batch_size is None:
            return self._train_data
        return self._rows(seed.draws(self._sample))

    def _noisy(self, g, seed):
        """g plus `seed`'s gradient noise, scaled here; g as it is, exactly
        as seed=None gives, for a noise-free oracle."""
        if seed is None or self.noise_std_grad == 0.0:
            return g
        return g + self.noise_std_grad * seed.draws(self._noise)

    def _noise(self, rng):
        """The unit gradient noise a stream draws."""
        return rng.standard_normal(self.dim)

    def stream_draw(self) -> Draw | None:
        """The Draw of each stream this oracle reads: a minibatch's indices
        at a batch_size, in the smallest unsigned dtype that holds every
        training index, else its gradient noise; None for a full-batch,
        noise-free oracle, which draws nothing."""
        if self.batch_size is not None:
            return Draw(self._sample, (self.batch_size,),
                        np.min_scalar_type(self._train_idx[-1]))
        if self.noise_std_grad > 0.0:
            return Draw(self._noise, (self.dim,), np.float64)
        return None

    # -- split evaluation for recording ----------------------------------

    def train_loss(self, x):
        """Training-split loss: a float, or one value per row of a stack."""
        return _per_row(self._losses(self._check(x), self._train_data))

    def val_loss(self, x):
        """Held-out loss; deterministic kinds report the train loss."""
        return _per_row(self._losses(self._check(x), self._val_data))

    def default_init(self, rng: np.random.Generator | None = None) -> np.ndarray:
        raise NotImplementedError

    # -- subclass hooks (see the class docstring) ---------------------------

    def _losses(self, xs, data):
        raise NotImplementedError

    def _grads(self, xs, data):
        raise NotImplementedError

    def _losses_and_grads(self, xs, data):
        return self._losses(xs, data), self._grads(xs, data)

    def _hvps(self, x, V, seed):
        """(g(x + h v) - g(x - h v)) / (2 h) for each direction v of V, with
        h = _HVP_STEP_SCALE (1 + ||x||) / (||v|| + tiny).

        Every gradient of a point's block shares the one minibatch addressed
        by its seed, so the sampling noise cancels in each difference, and
        all 2 n gradients of every point run as one stacked pass. A zero
        direction steps by exactly 0, so its two gradients are equal and its
        product comes out as +0.0; where x +- h v leaves the float range the
        products come out non-finite.
        """
        norms = _row_norms(V)
        h = (_HVP_STEP_SCALE * (1.0 + _row_norms(x)[..., None])
             / np.where(norms == 0.0, 1.0, norms + _TINY))
        steps = h[..., None] * V
        at = x[..., None, :]
        n = V.shape[-2]
        points = np.empty(V.shape[:-2] + (2 * n, V.shape[-1]))
        np.add(at, steps, out=points[..., :n, :])
        np.subtract(at, steps, out=points[..., n:, :])
        grads = self._grads(points, self._data(seed))
        diff = grads[..., :n, :] - grads[..., n:, :]
        return np.divide(diff, 2.0 * h[..., None], out=diff)

    def _check(self, x, seed=None) -> np.ndarray:
        """Validate one point with a BatchSeed, or a stack of R >= 1 points
        with a StackSeed of R rows."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2 and len(x):
            if not np.all(np.isfinite(x)):
                raise ValueError("parameter stack has non-finite entries")
            if not (seed is None or isinstance(seed, StackSeed) and len(seed) == len(x)):
                raise ValueError(f"{len(x)} stacked points need a {len(x)}-row StackSeed")
        else:
            x = as_params(x)
            if seed is not None and not isinstance(seed, BatchSeed):
                raise ValueError("a single point takes one BatchSeed")
        if x.shape[-1] != self.dim:
            raise ValueError(f"x has dim {x.shape[-1]}, oracle dim {self.dim}")
        return x


def _batch_for(xs, data):
    """(inputs, targets) broadcastable against the leading axes of xs.

    One batch has 2-d inputs; a stack of them, 3-d inputs with one batch
    per entry of the first axis of xs, gets unit axes for any further
    stack axes.
    """
    return data if data[0].ndim == 2 else tuple(
        a.reshape((len(xs),) + (1,) * (xs.ndim - 2) + a.shape[1:]) for a in data)


def _row_dots(a):
    """r . r for each last-axis row r of a, as a batched row dot. Each value
    is the `dot` that a lone row's `r @ r` takes, so a stack's values equal
    its rows' bit for bit; a reduction over axis=-1 may round differently."""
    return (a[..., None, :] @ a[..., :, None])[..., 0, 0]


def _row_norms(a):
    """The 2-norm of each last-axis row, equal bit for bit to the row's
    `np.linalg.norm` (which is sqrt(r . r) for a vector)."""
    return np.sqrt(_row_dots(a))


def _buffer(work, role, shape, dtype=np.float64):
    """A view of `shape` on the buffer that the dict `work` keeps for
    `role`, grown to the largest request so far; the next request for the
    same role overwrites it. With work None, a fresh array."""
    work, size = {} if work is None else work, math.prod(shape)
    buf = work.get(role)
    if buf is None or buf.size < size:
        buf = work[role] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _per_row(value, scalar=float):
    """A lone point's 0-d result as a Python `scalar`; a stack's per-row
    array as it is."""
    return scalar(value) if np.ndim(value) == 0 else value


class Quadratic(ProblemOracle):
    """f(x) = 0.5 * sum_i h_i x_i^2 with explicit curvatures h_i > 0."""

    kind = "quadratic"

    def __init__(self, h, noise_std_grad=0.0):
        h = np.asarray(h, dtype=object)
        if h.ndim != 1 or h.size == 0:
            raise ValueError("h must be a nonempty 1-d array")
        # each entry as `as_real` reads it: a JSON true is not a curvature
        h = np.array([as_real(v, "h") for v in h])
        if not np.all((h > 0.0) & (h < np.inf)):
            raise ValueError("quadratic requires all h_i finite and > 0")
        self.h = h
        self.dim = int(h.size)
        self.noise_std_grad = as_scale(noise_std_grad, "noise_std_grad")

    # Elementwise, and each row's last-axis sum is the sum a lone point
    # takes, so a stack equals its rows bit for bit.
    def _losses(self, xs, data):
        return 0.5 * np.sum(self.h * xs * xs, axis=-1)

    def _grads(self, xs, data):
        return self.h * xs

    def _hvps(self, x, V, seed):
        return self.h * V

    def default_init(self, rng=None):
        return np.ones(self.dim)


class Rosenbrock2D(ProblemOracle):
    """f(x, y) = (1 - x)^2 + 100 (y - x^2)^2; global minimum at (1, 1)."""

    kind = "rosenbrock"
    dim = 2

    def __init__(self, noise_std_grad=0.0):
        self.noise_std_grad = as_scale(noise_std_grad, "noise_std_grad")

    # np.square squares exactly at any shape; a lone point's numpy-scalar
    # `** 2` would call pow, which can differ in the last bit.
    def _losses(self, xs, data):
        a, b = xs[..., 0], xs[..., 1]
        return np.square(1.0 - a) + 100.0 * np.square(b - a * a)

    def _grads(self, xs, data):
        a, b = xs[..., 0], xs[..., 1]
        c = b - a * a
        return np.stack([-2.0 * (1.0 - a) - 400.0 * a * c, 200.0 * c], axis=-1)

    def _hvps(self, x, V, seed):
        a, b = x[..., None, 0], x[..., None, 1]
        h11 = 2.0 + 1200.0 * a * a - 400.0 * b
        h12 = -400.0 * a
        v1, v2 = V[..., 0], V[..., 1]
        return np.stack([h11 * v1 + h12 * v2, h12 * v1 + 200.0 * v2], axis=-1)

    def default_init(self, rng=None):
        return np.array([-1.2, 1.0])


class _SampleBased(ProblemOracle):
    """Shared dataset plumbing: split and mini-batch selection.

    A minibatch oracle adds no gradient noise: batch_size together with
    noise_std_grad > 0 is a ValueError at construction. A batch is the
    (inputs, targets) pair that the subclass's `_rows` gathers for a set of
    sample indices, in whatever layout its hooks read. The training and
    validation splits are gathered once at construction, so full-batch
    gradients and recorded losses read them without a copy.
    """

    def _setup_split(self, rng, n_samples, val_fraction, batch_size):
        if batch_size is not None and self.noise_std_grad > 0.0:
            raise ValueError("batch_size and noise_std_grad > 0 are exclusive: "
                             "a minibatch is the gradient noise of a sample-based kind")
        val_fraction = as_real(val_fraction, "val_fraction")
        if not 0.0 <= val_fraction < 1.0:
            raise ValueError("val_fraction must be in [0, 1)")
        perm = rng.permutation(n_samples)
        n_val = int(round(val_fraction * n_samples))
        if n_samples - n_val < 1:
            raise ValueError("split leaves no training samples")
        self._val_idx = np.sort(perm[:n_val])
        self._train_idx = np.sort(perm[n_val:])
        if batch_size is not None:
            batch_size = as_integer(batch_size, "batch_size")
            if not 1 <= batch_size <= self._train_idx.size:
                raise ValueError("batch_size must be in [1, n_train]")
        self.batch_size = batch_size
        self._train_data = self._rows(self._train_idx)
        self._val_data = self._rows(self._val_idx) if n_val else self._train_data

    def _rows(self, idx):
        """The batch of sample indices idx; an (R, n) index array gives one
        batch per row, stacked along a leading axis."""
        raise NotImplementedError

    def _sample(self, rng):
        """The minibatch indices a stream draws."""
        return rng.choice(self._train_idx, self.batch_size, replace=False)


class NoisyLeastSquares(_SampleBased):
    """f(x) = (1/n) ||A x - y||^2 with y = A x_true + noise_std * eps.

    Design matrix, ground truth, and observation noise are all drawn once
    from design_seed, so the dataset is a fixed property of the problem.
    """

    kind = "noisy_least_squares"

    def __init__(self, design_seed=0, n_samples=64, noise_std=0.1, dim=10,
                 val_fraction=0.2, batch_size=None, noise_std_grad=0.0):
        self.dim, n_samples = as_integer(dim, "dim"), as_integer(n_samples, "n_samples")
        if self.dim < 1 or n_samples < 2:
            raise ValueError("need dim >= 1 and n_samples >= 2")
        seed = as_integer(design_seed, "design_seed")
        noise_std = as_scale(noise_std, "noise_std")
        rng = np.random.default_rng(np.random.SeedSequence(seed & _SEED_MASK))
        self.A = rng.standard_normal((n_samples, self.dim))
        self.x_true = rng.standard_normal(self.dim)
        self.y = self.A @ self.x_true + noise_std * rng.standard_normal(n_samples)
        self.noise_std_grad = as_scale(noise_std_grad, "noise_std_grad")
        self._setup_split(rng, n_samples, val_fraction, batch_size)

    def _rows(self, idx):
        return self.A[idx], self.y[idx]

    # The unit last axis makes each point's product the matrix-vector
    # product a lone point runs, so a stack equals its rows bit for bit.
    def _residuals(self, xs, data):
        A, y = _batch_for(xs, data)
        return A, (A @ xs[..., None])[..., 0] - y

    def _losses(self, xs, data):
        r = self._residuals(xs, data)[1]
        return np.mean(r * r, axis=-1)

    def _grads(self, xs, data):
        A, r = self._residuals(xs, data)
        return (2.0 / r.shape[-1]) * (A.swapaxes(-1, -2) @ r[..., None])[..., 0]

    def _hvps(self, x, V, seed):
        # (2/b) A^T A on the minibatch the seed's gradient draws, if any
        A, _ = _batch_for(V, self._data(seed))
        return (2.0 / A.shape[-2]) * (A.swapaxes(-1, -2) @ (A @ V[..., None]))[..., 0]

    def default_init(self, rng=None):
        return np.zeros(self.dim)


class MlpRegression(_SampleBased):
    """ReLU network of any depth fit to a frozen teacher.

    layer_sizes = [d_in, hidden..., d_out], with at least one hidden
    layer; the forward pass and backprop loop over the layers. The flat
    parameter vector packs (W_1, b_1, ..., W_L, b_L) so dim = sum_l
    (fan_in_l * fan_out_l + fan_out_l). Inputs are standard normal, targets are the teacher's
    outputs plus label noise, all drawn once from teacher_seed. The loss is
    the mean over samples of the summed squared output error, and the
    gradient is manual backprop with the ReLU subgradient at 0 taken as 0.
    One forward pass serves both when `grad_and_train_loss` asks for them.

    Data are stored feature-major: X is (d_in, n_samples) and Y is
    (d_out, n_samples), and every split or minibatch is a C-contiguous
    column gather of them. Activations are (..., units, n), so the forward
    pass and backprop run with the sample axis innermost. A gather's
    layout picks the BLAS path, and so the last bits of every result.

    The oracle keeps a workspace: one flat float64 buffer per hidden layer
    for its activations, which backprop overwrites with that layer's delta
    once the activation is no longer needed. Each grows to the
    largest pass requested and is viewed at each call's shape, so repeated
    calls reuse the same pages instead of allocating them afresh. Nothing a
    call returns aliases the workspace, but the oracle is therefore not
    safe to call from two threads at once.

    Its HVP is the base class's central difference of the clean gradient,
    on the seed's minibatch at a batch_size.
    """

    kind = "mlp_regression"

    def __init__(self, layer_sizes=(8, 16, 2), teacher_seed=0, n_samples=256,
                 label_noise_std=0.05, val_fraction=0.2, batch_size=None,
                 noise_std_grad=0.0):
        sizes = [as_integer(s, "layer_sizes") for s in layer_sizes]
        if len(sizes) < 3:
            raise ValueError("layer_sizes must describe at least one hidden layer")
        if any(s < 1 for s in sizes):
            raise ValueError("layer sizes must be positive")
        n_samples = as_integer(n_samples, "n_samples")
        if n_samples < 2:
            raise ValueError("need n_samples >= 2")
        self.sizes = sizes
        self.dim = sum(a * b + b for a, b in zip(sizes, sizes[1:]))
        self.noise_std_grad = as_scale(noise_std_grad, "noise_std_grad")
        self._workspace = {}

        # The draws are sample-major, as (n_samples, features), and are
        # transposed so every stream keeps its order.
        seed = as_integer(teacher_seed, "teacher_seed")
        label_noise_std = as_scale(label_noise_std, "label_noise_std")
        rng = np.random.default_rng(np.random.SeedSequence(seed & _SEED_MASK))
        self.X = np.ascontiguousarray(rng.standard_normal((n_samples, sizes[0])).T)
        teacher = self._kaiming(rng)
        self.Y = self._forward(self._unpack(teacher), self.X)[-1]
        self.Y += label_noise_std * rng.standard_normal((n_samples, sizes[-1])).T
        self._setup_split(rng, n_samples, val_fraction, batch_size)

    # -- parameter packing ------------------------------------------------

    def _unpack(self, theta):
        """(W_l, b_l) views of theta, or stacks of them when theta has
        leading stack axes."""
        lead = theta.shape[:-1]
        layers, off = [], 0
        for a, b in zip(self.sizes, self.sizes[1:]):
            w = theta[..., off:off + a * b].reshape(lead + (b, a))
            off += a * b
            layers.append((w, theta[..., off:off + b]))
            off += b
        return layers

    def _kaiming(self, rng):
        """Kaiming-uniform weights, zero biases, flattened."""
        parts = []
        for a, b in zip(self.sizes, self.sizes[1:]):
            bound = np.sqrt(6.0 / a)
            parts.append(rng.uniform(-bound, bound, size=b * a))
            parts.append(np.zeros(b))
        return np.concatenate(parts)

    # -- network ----------------------------------------------------------

    def _rows(self, idx):
        """Feature-major inputs and targets of the samples idx, each one
        column gather and one C-contiguous copy: (d, n) for an index
        vector, (R, d, n) for an (R, n) index array."""
        return tuple(np.ascontiguousarray(a.take(idx, axis=1).swapaxes(0, -2))
                     for a in (self.X, self.Y))

    def _forward(self, layers, X):
        """Return the list of (..., units, n) layer outputs, ending with the
        predictions, for feature-major inputs X.

        The layers may carry leading stack axes; every output past X then
        carries them too. The hidden outputs are workspace views, valid
        until the next pass; the predictions are a fresh array.
        """
        outs = [X]
        z = X
        for i, (w, b) in enumerate(layers):
            hidden = i < len(layers) - 1
            out = (_buffer(self._workspace, ("act", i), w.shape[:-1] + z.shape[-1:])
                   if hidden else None)
            z = np.matmul(w, z, out=out)
            z += b[..., :, None]
            if hidden:
                np.maximum(z, 0.0, out=z)
            outs.append(z)
        return outs

    def _pass(self, theta, data):
        """Forward pass at theta on data: (layers, layer outputs, output
        error). Leading axes of theta give one pass per point, on shared or
        per-row batches, and each slice equals its single-theta pass bit for
        bit; a 1-d theta runs plain 2-d matmuls."""
        layers = self._unpack(theta)
        X, Y = _batch_for(theta, data)
        outs = self._forward(layers, X)
        return layers, outs, outs[-1] - Y

    @staticmethod
    def _mse(diff):
        """Mean over samples of the summed squared error, one per point."""
        return np.mean(np.sum(diff * diff, axis=-2), axis=-1)

    def _backprop(self, layers, outs, diff):
        """The flat gradient of the mean squared error from one pass; each
        layer writes its part straight into its slice of the (..., dim)
        result, in the layout `_unpack` reads."""
        delta = (2.0 / diff.shape[-1]) * diff
        grad = np.empty(diff.shape[:-2] + (self.dim,))
        parts = self._unpack(grad)
        for i in range(len(layers) - 1, -1, -1):
            w, _ = layers[i]
            np.matmul(delta, outs[i].swapaxes(-1, -2), out=parts[i][0])
            delta.sum(axis=-1, out=parts[i][1])
            if i > 0:
                # outs[i] is read for the last time here, so its activation
                # buffer takes the next delta once the ReLU mask is taken
                mask = outs[i] > 0.0
                delta = np.matmul(w.swapaxes(-1, -2), delta, out=outs[i])
                delta *= mask
        return grad

    def _losses(self, theta, data):
        return self._mse(self._pass(theta, data)[2])

    def _grads(self, theta, data):
        return self._backprop(*self._pass(theta, data))

    def _losses_and_grads(self, theta, data):
        layers, outs, diff = self._pass(theta, data)
        return self._mse(diff), self._backprop(layers, outs, diff)

    def default_init(self, rng=None):
        if rng is None:
            rng = np.random.default_rng(0)
        return self._kaiming(rng)


_PROBLEM_KINDS = {
    "quadratic": Quadratic,
    "rosenbrock": Rosenbrock2D,
    "noisy_least_squares": NoisyLeastSquares,
    "mlp_regression": MlpRegression,
}


def make_problem(kind: str, **params) -> ProblemOracle:
    """Construct a problem oracle by kind string (see _PROBLEM_KINDS)."""
    try:
        cls = _PROBLEM_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown problem kind {kind!r}") from None
    return cls(**params)
