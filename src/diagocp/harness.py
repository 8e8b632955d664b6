"""Experiment harness: seeded multi-run execution, the staged learning-rate
sweep, the clip-floor ablation, the optimizer comparison protocol, theory
verification checks, and CSV emission.

Seeding scheme: every replicate derives its own 64-bit stream base from
(base_seed, replicate_index); per-step noise then flows through
BatchSeed(stream_base, step, channel). Every draw a stack reads is a table
row: before its first step, a run, a whole sweep or an ablation draws, for
each channel it reads, every replicate's draw at every step into one table
(`_streams`): the probe blocks under a probe, and the minibatch indices or
the gradient noise of the oracle's streams. The stream_states seed words
that fill them are SeedSequence's own, so each entry is exactly the draw
of its lone BatchSeed. Tables over more than BUDGET bytes are filled a
window of steps at a time instead, as the steps reach each window.
Each replicate owns its state and RNG streams, and each learning rate is
only a per-row column in the step, so a whole sweep stage runs as one
(n_lrs * n_seeds, dim) stack of (lr, replicate) rows, lr-major. Each step
builds one StackSeed per channel the oracle reads, which holds every row's
draw, gathered from the entries of the row's replicate in the channel's
table. Each row's record is the one it would get run alone: it depends
neither on the stack height nor on which other lrs or replicates share it.

Step loop: one stepper advances the whole (lr, replicate) stack, so a
stage pays the per-step Python cost once for all of its rows. Step k
consumes the gradient at x_{k-1} (seed BatchSeed(base, k-1, GRADIENT)),
which the previous iteration evaluated together with the train loss
recorded at x_{k-1}; at full batch one forward pass serves both. So each
full-batch step costs one gradient pass plus the probe block, and the
step-0 gradient is evaluated once. After the last step only the train loss
is evaluated. Bookkeeping writes one record table per stack: each step
writes its (R,) columns (g.g, the step norm, rho, the clamp count, the
losses) into a slot the live rows share, and a RunRecord views its row.
The stepper owns one dict of buffers that clip_diag, update_moments,
step_closed_form and baseline_step write their (R, dim) results into (their
`out`), so a step allocates no stack-sized array of its own. What a step
can derive from the stack height alone is derived once per height: each
buffer's view at that height (`problems._buffer`), each stack row's
replicate, by which every StackSeed of the height gathers its draws, and
the record table's rows, a plain slice until a row leaves. When rows
leave, the dict is emptied, and the next step makes its buffers and views
at the new height. Those layers are the public functions, called by their names in
this module, and each keeps its checks, so every check runs once per step.

Divergence means non-finite numbers: a row whose iterate after a step, or
whose recorded train or validation loss, is non-finite is marked diverged
and leaves the stack; a non-finite iterate records inf losses at its step.
A ValueError is a bug, not divergence, and propagates.

Output schemas (column order is part of the contract):
  steps.csv    run_id,optimizer,lr,mu,seed,step,train_loss,val_loss,
               grad_norm_sq,step_norm,rho,safeguard_count
  summary.csv  optimizer,lr,final_train,final_val,min_val,min_val_step,diverged
  heatmap.csv  optimizer,lr,val_loss_at_T
  sweep.csv    lr,stage,metric,final_train,final_val,min_val,min_val_step,
               diverged
  ablation.csv label,mu,final_train,final_val,min_val,min_val_step,diverged
Summary, sweep and ablation rows aggregate replicates: median over
non-diverged seeds for the loss columns, the lower-median seed's argmin step
for min_val_step, and the count of diverged seeds in the diverged column.
A sweep row's stage is coarse or refine and its metric is the selection
metric, min_val; an ablation row's label is its clip floor, or control.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, baseline_step
from .diag_ocp import (OptimizerConfig, OptimizerState, clip_diag, init_state,
                       step_closed_form, step_recursive_reference, update_moments)
from .hessian_probe import hutchinson_diag, probe_draw
from .problems import (_SEED_MASK, BatchSeed, Channel, Quadratic, ProblemOracle, StackSeed,
                       _buffer, _row_dots, _row_norms, as_integer, as_list, as_real,
                       stream_states)

_INIT_STREAM = 3
# A run holds its tables, and the stream_states words that fill them, for
# a window of steps that takes at most this many bytes; every benchmark
# workload fits one window. A replicate's words take _WORD_BYTES per step.
BUDGET = 16 << 20
_WORD_BYTES = len(Channel) * 4 * 8

# The trajectory columns of a RunRecord and of a stack's record table.
RECORD_COLUMNS = {"steps": np.int64, "train_loss": np.float64, "val_loss": np.float64,
                  "grad_norm_sq": np.float64, "step_norm": np.float64,
                  "rho": np.float64, "safeguard_count": np.int64}
STEP_HEADER = (("run_id", "optimizer", "lr", "mu", "seed", "step")
               + tuple(RECORD_COLUMNS)[1:])
AGGREGATE_COLUMNS = ("final_train", "final_val", "min_val", "min_val_step",
                     "diverged")
SUMMARY_HEADER = ("optimizer", "lr") + AGGREGATE_COLUMNS
HEATMAP_HEADER = ("optimizer", "lr", "val_loss_at_T")
SWEEP_HEADER = ("lr", "stage", "metric") + AGGREGATE_COLUMNS
ABLATION_HEADER = ("label", "mu") + AGGREGATE_COLUMNS

# Frozen from a pilot scan. The transient of the averaged true-gradient
# norm contracts like exp(-alpha*h*k^2/2) and then meets a noise floor that
# grows with the step horizon, so the min-over-prefix statistic only keeps
# decaying past T=100 when that knee lands inside (100, 400). A tight
# spectrum with alpha just above the safeguard boundary (alpha*h >= 1e-3
# keeps every base unclamped) and small gradient noise puts the knee near
# k=200 with a wide margin on every seed tried.
RATE_TREND_CONFIG = OptimizerConfig(alpha=0.0015, beta1=0.9, beta2=0.999,
                                    mu=1e-4, g_d=1e4, weight_decay=0.0,
                                    probe_distribution="rademacher")


def default_rate_problem() -> Quadratic:
    return Quadratic(np.linspace(0.8, 1.25, 20), noise_std_grad=0.002)


# ---------------------------------------------------------------------------
# run configuration and records


@dataclass
class RunConfig:
    """One experiment: a problem, an optimizer, and execution knobs.

    For sample-based problems the train/validation split is part of the
    problem construction (val_fraction); deterministic problems report the
    train loss as the validation loss. Every replicate starts from the
    problem's default_init under its own seeded stream. `optimizer` is the
    run's label, a nonempty string: its run_ids and the optimizer column
    of its CSV rows read it, and compare keys its entries by it, so two
    entries of one kind can run side by side under two labels. Counts and
    the seed are integers (see `as_integer`), and max_steps <= 2**32.
    """

    problem: ProblemOracle
    optimizer: str
    opt_cfg: OptimizerConfig | BaselineConfig
    max_steps: int
    base_seed: int
    n_seeds: int = 1
    record_every: int = 1

    def __post_init__(self):
        if not isinstance(self.optimizer, str) or not self.optimizer:
            raise ValueError(f"optimizer must be a nonempty label, got {self.optimizer!r}")
        for name in ("max_steps", "base_seed", "n_seeds", "record_every"):
            setattr(self, name, as_integer(getattr(self, name), name))
        if self.n_seeds < 1 or self.record_every < 1:
            raise ValueError("n_seeds, record_every must be >= 1")
        # a stream's step index is one 32-bit spawn-key word (stream_states)
        if not 1 <= self.max_steps <= 2**32:
            raise ValueError(f"max_steps must be in [1, 2**32], got {self.max_steps}")


@dataclass
class RunRecord:
    """Recorded trajectory of one replicate plus its summary.

    The trajectory fields are numpy arrays, one entry per recorded step
    (dtypes in RECORD_COLUMNS), viewing the replicate's row of its stack's
    record table. rho is NaN at step 0 and for an optimizer that reports
    none; steps.csv writes those as empty fields and a real step's NaN as nan.
    """

    run_id: str
    optimizer: str          # the run's label, RunConfig.optimizer
    lr: float
    mu: float | None        # diag_ocp's curvature clip floor, None for a baseline
    seed: int
    steps: np.ndarray
    train_loss: np.ndarray
    val_loss: np.ndarray
    grad_norm_sq: np.ndarray
    step_norm: np.ndarray
    rho: np.ndarray
    safeguard_count: np.ndarray
    final_train: float = float("nan")
    final_val: float = float("nan")
    min_val: float = float("nan")
    min_val_step: int = -1
    diverged: bool = False
    wall_ms: float = 0.0    # wall time of the stack's steps: the sweep stage


def _replicate_base(base_seed: int, rep: int) -> int:
    ss = np.random.SeedSequence(base_seed & _SEED_MASK, spawn_key=(rep,))
    return int(ss.generate_state(1, np.uint64)[0])


def _init_rng(rep_base: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(rep_base & _SEED_MASK, spawn_key=(_INIT_STREAM,)))


class _Window:
    """Each channel a run draws on -> its table over the current window of
    `width` steps from `start`, shared by every stack that reads them.
    `draws` maps each channel to the Draw that fills its table: the one
    record of what the run draws."""

    def __init__(self, bases, draws, n_steps):
        self.bases, self.draws, self.n_steps = bases, draws, n_steps
        per_step = len(bases) * (_WORD_BYTES + sum(
            math.prod(d.shape) * np.dtype(d.dtype).itemsize for d in draws.values()))
        self.width = max(1, BUDGET // per_step)
        self.start, self.tables = None, {}
        if draws:
            self.fill(0)

    def fill(self, start):
        """Draw every table over the window of steps from start."""
        steps = range(start, min(start + self.width, self.n_steps))
        words = stream_states(self.bases, steps)
        self.start = start
        self.tables = {channel: draw.table(self.bases, steps, channel, words)
                       for channel, draw in self.draws.items()}


def _streams(cfg: RunConfig) -> _Window:
    """The streams of cfg's replicates, built once for every stack that
    steps them: a run's, both stages of a sweep, or every floor of an
    ablation.

    Each channel the run reads gets its Draw, built here once, and one
    table of every replicate's draw at every step (see `Draw.table`):
    PROBE's probe blocks under opt_cfg.probe(dim); and the oracle's
    `stream_draw` on GRADIENT and, for a minibatch HVP under a probe, on
    HESSIAN_NOISE. No HVP reads gradient noise, so a noisy full-batch
    oracle draws no HESSIAN_NOISE. The tables cover steps 0..max_steps-1
    at once when they and their words fit in BUDGET bytes, as every
    benchmark workload does, and otherwise a window of steps at a time
    (`_seeds`). So a run, or a sweep that fits, draws each entry once.
    """
    problem, probe = cfg.problem, cfg.opt_cfg.probe(cfg.problem.dim)
    bases = [_replicate_base(cfg.base_seed, rep) for rep in range(cfg.n_seeds)]
    draws, oracle = {}, problem.stream_draw()
    if probe is not None:
        draws[Channel.PROBE] = probe
    if oracle is not None:
        draws[Channel.GRADIENT] = oracle
        if probe is not None and problem.batch_size is not None:
            draws[Channel.HESSIAN_NOISE] = oracle
    return _Window(bases, draws, cfg.max_steps)


def _seeds(window, k, channel, rows):
    """The StackSeed for 0-based step index k of a stack whose row r reads
    replicate rows[r]: the rows' entries of the channel's table at k,
    gathered from the window that holds k, drawn first when k lies outside
    the current one. None for a channel the oracle does not draw on, which
    reads it as the full-batch, noise-free draw that such an oracle makes
    anyway."""
    if channel not in window.draws:
        return None
    if not 0 <= k - window.start < window.width:
        window.fill(k - k % window.width)
    return StackSeed(window.tables[channel][rows, k - window.start])


def _advance(problem, opt_cfg, work, state, x, g, window, rows, k, lr=None):
    """One optimizer step of the (R, dim) stack x at 1-based step index k.

    g is the (R, dim) gradient at x drawn at step index k - 1 and state is
    None before the first step. Row r reads replicate rows[r]'s draws from
    the window's tables (see `_streams`) and steps with lr[r], an (R, 1)
    column (opt_cfg's lr when None), so it steps exactly as it would alone.
    The stack probes when the run draws on PROBE, and hands
    `hutchinson_diag` the Draw that filled the probe table. Returns
    (x_next, state', step_norm, rho, clamped) with one ||x_next - x||, rho
    and clamp count per row; rho and clamped are None for the baselines.
    diag_ocp's path is probe -> clip -> moments -> closed-form step, and
    adahessian steps on the raw probe estimate; this is the one branch on
    the optimizer family, because the two step algorithms differ. Every
    layer writes its (R, dim) results into the stepper's buffer dict
    `work`, so x_next and state' live there until the step after next.
    """
    raw = None
    if Channel.PROBE in window.draws:
        hseeds = _seeds(window, k - 1, Channel.HESSIAN_NOISE, rows)
        raw = hutchinson_diag(lambda V: problem.hvp(x, V, hseeds),
                              window.draws[Channel.PROBE],
                              _seeds(window, k - 1, Channel.PROBE, rows))
    if state is None:
        state = init_state(x.shape)
    if isinstance(opt_cfg, OptimizerConfig):
        state, m_hat, d_hat = update_moments(state, g, clip_diag(raw, opt_cfg, out=work),
                                             opt_cfg, out=work)
        x_next, diag = step_closed_form(state, x, m_hat, d_hat, opt_cfg, lr=lr, out=work)
        return x_next, state, diag.step_norm, diag.rho, diag.row_clamped
    x_next, state = baseline_step(state, x, g, opt_cfg, h_diag=raw, lr=lr, out=work)
    diff = np.subtract(x_next, x, out=_buffer(work, "diff", x.shape))
    return x_next, state, _row_norms(diff), None, None


def _take(state, rows):
    """Rows `rows` of a state's (R, dim) buffers (None before the first
    step); the step count t is shared."""
    return None if state is None else replace(state, m=state.m[rows], D=state.D[rows])


def _init_stack(problem, bases):
    """Initial (R, dim) iterate stack: each replicate's seeded default
    initialization."""
    return np.stack([problem.default_init(_init_rng(b)) for b in bases])


def _label(value: float) -> str:
    """value as `:g` prints it when that reads back as the same float, else
    its repr, so two values never share a run_id."""
    short = f"{value:g}"
    return short if float(short) == value else repr(float(value))


def run_experiment(cfg: RunConfig) -> list[RunRecord]:
    """Execute cfg.n_seeds replicates; one RunRecord per seed, in seed order.

    The one-lr case of the stepper `_run_stack`, at cfg.opt_cfg's lr.
    """
    return _run_stack(cfg, [cfg.opt_cfg.lr], _streams(cfg))[0]


def _run_stack(cfg: RunConfig, lrs, window: _Window) -> list[list[RunRecord]]:
    """Run cfg's replicates at every learning rate of lrs as one stack;
    returns one seed-ordered RunRecord list per lr, in lrs order.
    `window` is `_streams(cfg)`, which a sweep shares between its stages.

    Row (j, rep) of the (len(lrs) * n_seeds, dim) stack, lr-major, starts
    from replicate rep's initial iterate, draws its noise from replicate
    rep's stream base and steps with lrs[j]; cfg.opt_cfg supplies every
    other setting. Each row's record equals the one it would get run alone.
    Blow-up propagates as inf/NaN; a row whose iterate or recorded loss is
    non-finite is marked diverged and drops out of the stack. `live` maps
    each stack row to its table row, so stack row r reads the draws of
    replicate reps[r] = live[r] % n_seeds; both, and `at`, the table rows
    written (every row until one leaves), change only with the stack
    height. Live rows share one slot of the record table: every step
    writes it, and only a recording step moves on. Row r's trajectory is
    table[name][r, :length[r]].
    """
    problem, opt_cfg = cfg.problem, cfg.opt_cfg
    t_start = time.perf_counter()
    lrs = [opt_cfg.with_lr(lr).lr for lr in lrs]    # with_lr validates each lr
    n = cfg.n_seeds
    x, state = np.tile(_init_stack(problem, window.bases), (len(lrs), 1)), None
    lr_col = np.repeat(lrs, n)[:, None]
    work = {}   # the stepper's buffers (see `_advance`)
    step = partial(_advance, problem, opt_cfg, work)
    # step 0, every cadence step, an off-cadence last step and a divergence
    n_slots = cfg.max_steps // cfg.record_every + 2
    table = {name: np.zeros((len(lr_col), n_slots), dtype)
             for name, dtype in RECORD_COLUMNS.items()}
    table["rho"].fill(np.nan)
    length = np.zeros(len(lr_col), np.int64)
    diverged = np.zeros(len(lr_col), bool)
    live = np.arange(len(lr_col))   # the table row of each stack row
    at, reps = slice(None), live % n

    def write(rows, slot, **columns):
        for name, column in columns.items():
            table[name][rows, slot] = column

    def leave(ok, n_recorded):
        """Mark the rows where ok is False diverged with n_recorded slots,
        and drop them from the stack."""
        nonlocal x, g, state, lr_col, live, at, reps
        out = live[~ok]
        length[out], diverged[out] = n_recorded, True
        rows = np.flatnonzero(ok)
        x, g, state, lr_col = x[rows], g[rows], _take(state, rows), lr_col[rows]
        at = live = live[rows]
        reps = live % n
        work.clear()    # the buffers are made afresh at the new height

    # overflow past float range is the divergence signal, not a warning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        g, train = problem.grad_and_train_loss(x, _seeds(window, 0, Channel.GRADIENT, reps))
        write(at, 0, train_loss=train, val_loss=problem.val_loss(x), grad_norm_sq=_row_dots(g))
        slot = 1
        for k in range(1, cfg.max_steps + 1):
            x, state, step_norm, rho, clamped = step(state, x, g, window, reps, k, lr_col)
            write(at, slot, steps=k, grad_norm_sq=_row_dots(g), step_norm=step_norm)
            if rho is not None:
                write(at, slot, rho=rho, safeguard_count=clamped)
            finite = np.isfinite(x, out=_buffer(work, "finite", x.shape, bool))
            if not finite.all():
                ok = finite.all(axis=-1)
                write(live[~ok], slot, train_loss=np.inf, val_loss=np.inf)
                leave(ok, slot + 1)
                if not live.size:
                    break
            recording = k % cfg.record_every == 0 or k == cfg.max_steps
            if k == cfg.max_steps:
                train = problem.train_loss(x)
            elif recording:
                g, train = problem.grad_and_train_loss(x, _seeds(window, k, Channel.GRADIENT,
                                                                 reps))
            else:
                g = problem.eval_grad(x, _seeds(window, k, Channel.GRADIENT, reps))
            if recording:
                val = problem.val_loss(x)
                write(at, slot, train_loss=train, val_loss=val)
                slot += 1
                ok = np.isfinite(train) & np.isfinite(val)
                if not ok.all():
                    leave(ok, slot)
                    if not live.size:
                        break
    length[live] = slot

    wall_ms = (time.perf_counter() - t_start) * 1e3
    mu = opt_cfg.mu if isinstance(opt_cfg, OptimizerConfig) else None

    def record(row, lr, rep):
        traj = {name: column[row, :length[row]] for name, column in table.items()}
        val, best = traj["val_loss"], int(np.argmin(traj["val_loss"]))
        tag = f"{cfg.optimizer}-lr{_label(lr)}" + ("" if mu is None else f"-mu{_label(mu)}")
        return RunRecord(
            run_id=f"{tag}-s{rep}", optimizer=cfg.optimizer, lr=lr, mu=mu, seed=rep,
            **traj, final_train=float(traj["train_loss"][-1]), final_val=float(val[-1]),
            min_val=float(val[best]), min_val_step=int(traj["steps"][best]),
            diverged=bool(diverged[row]), wall_ms=wall_ms)

    return [[record(j * n + rep, lr, rep) for rep in range(n)] for j, lr in enumerate(lrs)]


# ---------------------------------------------------------------------------
# aggregation


def _aggregate(records: list[RunRecord]) -> dict:
    """Seed-aggregated summary values for one (optimizer, lr) group."""
    ok = [r for r in records if not r.diverged]
    n_div = len(records) - len(ok)
    if not ok:
        inf = float("inf")
        return dict(zip(AGGREGATE_COLUMNS, (inf, inf, inf, -1, n_div)))
    order = sorted(ok, key=lambda r: r.min_val)
    return dict(zip(AGGREGATE_COLUMNS, (
        float(np.median([r.final_train for r in ok])),
        float(np.median([r.final_val for r in ok])),
        float(np.median([r.min_val for r in ok])),
        order[(len(order) - 1) // 2].min_val_step,
        n_div,
    )))


# ---------------------------------------------------------------------------
# learning-rate sweep


@dataclass(frozen=True)
class SweepSpec:
    """Two-stage sweep: a descending coarse grid, then the winner x refined
    as {x, x/2, x/10}; both stages select the lr with the fewest diverged
    seeds, then the lowest median min_val of the rest."""

    coarse_grid: tuple = (1e-1, 1e-2, 1e-3, 1e-4)

    def __post_init__(self):
        grid = tuple(as_list(self.coarse_grid, "coarse_grid", as_real))
        if not grid:
            raise ValueError("coarse grid must be nonempty")
        if not all(0.0 < v < math.inf for v in grid):
            raise ValueError("coarse grid must be finite and strictly positive")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ValueError("coarse grid must be strictly descending")
        object.__setattr__(self, "coarse_grid", grid)


@dataclass
class SweepResult:
    rows: list[dict]                 # per-lr aggregates with a stage tag
    selected_lr: float
    records: dict                    # lr -> list[RunRecord]


def lr_sweep(spec: SweepSpec, base: RunConfig) -> SweepResult:
    """Stage 1 runs every coarse lr; stage 2 refines the winner x as
    {x, x/2, x/10}.

    Each stage is one stack of (lr, replicate) rows: the coarse grid, then
    the refine candidates not run yet, so a sweep makes two stepper runs
    (one when every candidate was already run), and each lr's records equal
    those of its own run_experiment. Both stages read one `_streams`, so
    each draw is made once per sweep when its tables fit one window. An
    lr's metric is its `_aggregate` min_val, the median over non-diverged
    seeds, inf when every seed diverged. Each stage ranks its lrs by
    (diverged seeds, metric), so an lr whose few survivors did well does
    not beat one where every seed survived, and ties go to the larger lr
    (min keeps the first of a descending grid). Raises if every coarse run
    diverged. The refinement set contains the stage-1 winner itself, not a
    rounded copy, so the selected lr ranks no worse than any coarse lr.
    """
    records: dict = {}
    aggregates: dict = {}
    window = _streams(base)

    def run_stage(lrs):
        new = [lr for lr in lrs if lr not in records]
        if new:
            for lr, recs in zip(new, _run_stack(base, new, window)):
                records[lr], aggregates[lr] = recs, _aggregate(recs)

    def rank(lr):
        return aggregates[lr]["diverged"], aggregates[lr]["min_val"]

    run_stage(spec.coarse_grid)
    best_lr = min(spec.coarse_grid, key=rank)
    if not np.isfinite(aggregates[best_lr]["min_val"]):
        raise ValueError(
            f"all runs diverged across the coarse grid {list(spec.coarse_grid)}")

    # x / 1.0 is x itself, where x * 10 / 10 can round to a near-duplicate lr
    candidates = sorted({best_lr / d for d in (1.0, 2.0, 10.0)}, reverse=True)
    run_stage(candidates)
    selected = min(candidates, key=rank)

    stages = dict.fromkeys(spec.coarse_grid, "coarse")
    for lr in candidates:
        stages.setdefault(lr, "refine")
    rows = [{"lr": lr, "stage": stage, "metric": aggregates[lr]["min_val"],
             **aggregates[lr]} for lr, stage in stages.items()]
    return SweepResult(rows=rows, selected_lr=selected, records=records)


# ---------------------------------------------------------------------------
# clip-floor ablation


# The ablation control's clip floor: tiny, so effectively unclamped, but
# positive, so the closed-form division stays defined.
CONTROL_CLIP_LO = 1e-12


def ablate_mu(values, base: RunConfig) -> dict:
    """One run set per clip floor plus an effectively-unclamped control at
    CONTROL_CLIP_LO: {floor: records} in the order of values, then
    {"control": records}; each record's mu is its floor. The floors, the
    control's included, must be distinct, so each run's (run_id, step) rows
    are written once. The floors differ only in mu, so every run reads one
    `_streams`: each draw is made once per ablation, not once per floor,
    when its tables fit one window.
    """
    if not isinstance(base.opt_cfg, OptimizerConfig):
        raise ValueError("the clip-floor ablation needs an OptimizerConfig")
    values = tuple(as_list(values, "mu_values", as_real))
    if not values:
        raise ValueError("need at least one mu value")
    floors = values + (CONTROL_CLIP_LO,)
    # a repeated floor would write its runs' (run_id, step) rows twice
    if len(set(floors)) != len(floors):
        raise ValueError(f"the mu values and the control floor {CONTROL_CLIP_LO:g} "
                         f"must be distinct, got {list(values)}")
    # every config first: OptimizerConfig rejects a bad floor before any run
    cfgs = [replace(base, opt_cfg=replace(base.opt_cfg, mu=v)) for v in floors]
    window = _streams(base)
    return {key: _run_stack(cfg, [cfg.opt_cfg.lr], window)[0]
            for key, cfg in zip(values + ("control",), cfgs)}


# ---------------------------------------------------------------------------
# verification checks


def verify_closed_form_equivalence(seed: int = 0) -> dict:
    """Compare the closed-form step against the literal recursion on 200
    random (dim <= 32, t' <= 64) inputs with every base |1 - alpha d| < 1:
    alpha d is uniform in (0.01, 1.99) or, for half the coordinates, flat
    and log-uniform in [1e-12, 1e-2]. Passes when the largest deviation is
    <= 1e-9.

    Trials where the safeguard clamps a base are excluded from the deviation
    (the clamped closed form and the raw recursion legitimately differ there)
    and reported separately.
    """
    seed = as_integer(seed, "seed")
    trials, tol = 200, 1e-9
    rng = np.random.default_rng(np.random.SeedSequence(seed & _SEED_MASK,
                                                       spawn_key=(101,)))
    t_start = time.perf_counter()
    max_dev, excluded = 0.0, 0
    for _ in range(trials):
        dim = int(rng.integers(1, 33))
        t_prime = int(rng.integers(1, 65))
        alpha = float(rng.uniform(0.01, 1.0))
        flat = rng.random(dim) < 0.5
        d_hat = np.where(flat, 10.0 ** rng.uniform(-12.0, -2.0, dim),
                         rng.uniform(0.01, 1.99, dim)) / alpha
        m_hat = rng.standard_normal(dim)
        x = rng.standard_normal(dim)
        cfg = OptimizerConfig(alpha=alpha, mu=1e-14, g_d=1e6, weight_decay=0.0)
        state = OptimizerState(t=t_prime, m=m_hat.copy(), D=d_hat.copy())
        x_closed, diag = step_closed_form(state, x, m_hat, d_hat, cfg)
        if diag.n_clamped:
            excluded += 1
            continue
        x_rec = step_recursive_reference(state, x, m_hat, d_hat, cfg)
        max_dev = max(max_dev, float(np.max(np.abs(x_closed - x_rec))))
    return {
        "check": "closed_form_equivalence",
        "trials": trials,
        "excluded_safeguarded": excluded,
        "max_abs_deviation": max_dev,
        "tolerance": tol,
        "elapsed_s": time.perf_counter() - t_start,
        "pass": bool(max_dev <= tol),
    }


def verify_rate_trend(T_list=(100, 200, 400), n_seeds: int = 20,
                      base_seed: int = 0) -> dict:
    """Track min over k <= T of the seed-averaged true gradient norm squared,
    for RATE_TREND_CONFIG on default_rate_problem(), the one problem and
    optimizer its 0.6 threshold was frozen on.

    The gradient entering the statistic is the noise-free full-batch one (the
    optimizer itself still sees its noisy stream). Reports the minima, r(T) =
    T * min, and the log-log slope of min vs T; passes when the value at the
    largest T is <= 0.6 times the value at the smallest T.
    The run stops at the first step that leaves an iterate non-finite
    (diverged_step, else None) and fails; the statistics past it are None.
    """
    T_list = as_list(T_list, "T_list", as_integer)
    ratio_threshold = 0.6
    if len(T_list) < 2:
        raise ValueError("need at least two T values")
    if sorted(set(T_list)) != T_list or T_list[0] < 1:
        raise ValueError("T_list must be ascending, distinct, and positive")
    problem, opt_cfg = default_rate_problem(), RATE_TREND_CONFIG
    cfg = RunConfig(problem=problem, optimizer=opt_cfg.kind, opt_cfg=opt_cfg,
                    max_steps=T_list[-1], base_seed=base_seed, n_seeds=n_seeds)
    t_start = time.perf_counter()
    t_max, n_seeds = cfg.max_steps, cfg.n_seeds
    window, rows, work = _streams(cfg), np.arange(n_seeds), {}
    x, state = _init_stack(problem, window.bases), None
    acc, diverged_step = np.zeros(t_max), None
    # overflow past float range is the divergence signal, as in _run_stack
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(1, t_max + 1):
            g = problem.eval_grad(x, _seeds(window, k - 1, Channel.GRADIENT, rows))
            x, state, *_ = _advance(problem, opt_cfg, work, state, x, g, window, rows, k)
            if not np.isfinite(x).all():
                diverged_step = k
                break
            acc[k - 1] = sum(_row_dots(problem.eval_grad(x, None)).tolist())
    done = t_max if diverged_step is None else diverged_step - 1
    avg = acc / n_seeds
    mins = [float(np.min(avg[:T])) if T <= done else None for T in T_list]
    slope = ratio = None
    if diverged_step is None:
        slope = float(np.polyfit(np.log(T_list), np.log(mins), 1)[0])
        ratio = mins[-1] / mins[0]
    return {
        "check": "rate_trend",
        "T_list": T_list,
        "min_avg_grad_norm_sq": mins,
        "r": [None if m is None else T * m for T, m in zip(T_list, mins)],
        "loglog_slope": slope,
        "ratio_last_to_first": ratio,
        "ratio_threshold": ratio_threshold,
        "n_seeds": n_seeds,
        "diverged_step": diverged_step,
        "elapsed_s": time.perf_counter() - t_start,
        "pass": ratio is not None and bool(ratio <= ratio_threshold),
    }


def verify_probe_unbiasedness(seed: int = 0) -> dict:
    """Hutchinson sanity: 5% per-coordinate accuracy on a seeded 8x8
    symmetric matrix at 100,000 Rademacher draws, and exactness (zero error)
    on a diagonal matrix at a single probe."""
    seed = as_integer(seed, "seed")
    dim, tol = 8, 0.05
    probe = probe_draw(100_000, "rademacher", dim)
    rng = np.random.default_rng(np.random.SeedSequence(seed & _SEED_MASK,
                                                       spawn_key=(202,)))
    t_start = time.perf_counter()
    a = rng.uniform(-0.3, 0.3, (dim, dim))
    a = (a + a.T) / 2.0
    a[np.diag_indices(dim)] = rng.uniform(1.0, 2.0, dim)
    est = hutchinson_diag(lambda V: V @ a, probe, BatchSeed(seed, 0, Channel.PROBE))
    max_rel = float(np.max(np.abs(est - np.diag(a)) / np.abs(np.diag(a))))

    d = np.array([3.0, 5.0])
    exact = hutchinson_diag(lambda v: d * v, probe_draw(1, "rademacher", 2),
                            BatchSeed(seed, 1, Channel.PROBE))
    exact_err = float(np.max(np.abs(exact - d)))
    return {
        "check": "probe_unbiasedness",
        "n_probes": probe.shape[0],
        "dim": dim,
        "max_relative_error": max_rel,
        "tolerance": tol,
        "diagonal_exact_error": exact_err,
        "elapsed_s": time.perf_counter() - t_start,
        "pass": bool(max_rel <= tol and exact_err == 0.0),
    }


# ---------------------------------------------------------------------------
# comparison protocol


@dataclass
class CompareResult:
    sweeps: dict        # entry label (RunConfig.optimizer) -> SweepResult

    @property
    def selected(self) -> dict:
        """label -> its selected lr"""
        return {opt: sw.selected_lr for opt, sw in self.sweeps.items()}

    @property
    def records(self) -> dict:
        """label -> its list[RunRecord] at the selected lr"""
        return {opt: sw.records[sw.selected_lr] for opt, sw in self.sweeps.items()}


def compare(entries: list[RunConfig], spec: SweepSpec) -> CompareResult:
    """Tune each entry with the staged sweep, then report it at its
    selected lr. Entries must have distinct labels (RunConfig.optimizer);
    two entries of one kind, say diag_ocp with two curvature settings, run
    side by side under two labels."""
    keys = [e.optimizer for e in entries]
    if len(set(keys)) != len(keys):
        raise ValueError("compare entries must use distinct optimizer labels")
    if not entries:
        raise ValueError("need at least one compare entry")
    return CompareResult(sweeps={e.optimizer: lr_sweep(spec, e) for e in entries})


# ---------------------------------------------------------------------------
# emission


def _step_rows(records: list[RunRecord]):
    """steps.csv rows. rho is None, an empty field, at step 0 and for a
    record without a clip floor (mu None), whose optimizer reports no rho,
    whatever its label; a NaN rho from a real step stays nan."""
    for rec in records:
        # csv writes a float as str(float): lr and mu (None for a baseline,
        # else > 0) are formatted once per record, not once per row
        head = (rec.run_id, rec.optimizer, str(rec.lr), rec.mu and str(rec.mu), rec.seed)
        cols = {name: getattr(rec, name).tolist() for name in RECORD_COLUMNS}
        cols["rho"] = ([None] + cols["rho"][1:] if rec.mu is not None
                       else [None] * len(rec.rho))
        yield from (head + row for row in zip(*cols.values()))


def summary_rows(records: list[RunRecord]) -> list[tuple]:
    """One aggregated row per (optimizer, lr), optimizer ascending then lr
    descending."""
    groups: dict = {}
    for rec in records:
        groups.setdefault((rec.optimizer, rec.lr), []).append(rec)
    return [(opt, lr) + tuple(_aggregate(groups[(opt, lr)]).values())
            for opt, lr in sorted(groups, key=lambda k: (k[0], -k[1]))]


def emit_results(records: list[RunRecord], path=".") -> list[Path]:
    """Write steps.csv and summary.csv under `path`; returns the written
    paths."""
    if not records:
        raise ValueError("no records to emit")
    return _write_tables(path, [("steps", STEP_HEADER, _step_rows(records)),
                                ("summary", SUMMARY_HEADER, summary_rows(records))])


def emit_heatmap(sweeps: dict, path) -> Path:
    """Write heatmap.csv: final-step validation loss over the swept grid."""
    if not sweeps:
        raise ValueError("no sweep results to emit")
    rows = [(opt, row["lr"], row["final_val"]) for opt in sorted(sweeps)
            for row in sorted(sweeps[opt].rows, key=lambda r: -r["lr"])]
    return _write_tables(path, [("heatmap", HEATMAP_HEADER, rows)])[0]


def emit_sweep(sweep: SweepResult, path) -> Path:
    """Write sweep.csv: one row per swept lr plus the aggregate columns."""
    rows = [tuple(row[k] for k in SWEEP_HEADER) for row in sweep.rows]
    return _write_tables(path, [("sweep", SWEEP_HEADER, rows)])[0]


def emit_ablation(ablation: dict, path) -> list[Path]:
    """Write steps.csv over all of an `ablate_mu` result's runs plus
    ablation.csv, one row per floor, labelled by its key, with the mu its
    records ran at."""
    all_records, rows = [], []
    for key, records in ablation.items():
        all_records.extend(records)
        rows.append((str(key), records[0].mu) + tuple(_aggregate(records).values()))
    return _write_tables(path, [("steps", STEP_HEADER, _step_rows(all_records)),
                                ("ablation", ABLATION_HEADER, rows)])


def _write_tables(path, tables) -> list[Path]:
    """Create directory `path` and write each (stem, header, rows) table to
    <stem>.csv; returns the written paths in table order. CSV is RFC 4180
    (the csv module's excel dialect), with None as an empty field.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for stem, header, rows in tables:
        target = out / f"{stem}.csv"
        with open(target, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(target)
    return paths
