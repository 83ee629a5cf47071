"""Monte Carlo simulation of the controlled surplus process.

simulate_paths replays a stored policy forward: each period draws a claim
atom and a premium-income atom by inverse CDF, takes the treaty stored at
the nearest grid state at or below the current surplus, and applies the
exact surplus recursion. That treaty's premium and retained claim are read
from the one policy table (dp._policy_table), which holds every family,
custom treaties included. The below lookup is deliberate: budgets tighten
as surplus falls, so borrowing the row of a lower state can only select a
treaty that was affordable there, never an infeasible one. Ruin means the
surplus is negative at any decision epoch after the start.

Sampling is batched. Batch b draws from Philox(key=seed).jumped(b), a
counter-based stream, so the draws for a given seed do not depend on how
many batches run or in which order they would complete; accumulation
follows batch order and repeated runs agree byte for byte.

ruin_bound_check reports the sum of per-period tail levels, the classical
union bound on the ruin probability available under value-at-risk stages.
The bound is only backed where the policy's cost-to-go stays nonpositive,
so the check walks a worst-case deterministic drift path (largest retained
claim, smallest income atom) and flags whether that precondition held at
every visited state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import _search_bracketed, quantile, quantile_index
# evaluate_policy stays importable from here: bench/tracing.py patches it at
# this import site
from .dp import (  # noqa: F401
    ModelConfig,
    PolicyTable,
    _policy_table,
    _policy_values,
    evaluate_policy,
)
from .errors import NotVaRConfig, ValidationError, _integer, _real

__all__ = ["SimResult", "ruin_bound_check", "simulate_paths"]

_BATCH = 10_000
_QUANTILE_LEVELS = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class SimResult:
    """Summary statistics of one seeded simulation run.

    period_ruin_counts[n] counts paths whose surplus is negative right
    after period n; a path can appear in several periods. The imputed
    counts, present when stage value functions are supplied, instead count
    paths whose one-step capital requirement stays positive after period n.
    """

    paths: int
    ruin_estimate: float
    ci_half_width: float
    terminal_mean: float
    terminal_quantiles: tuple[tuple[float, float], ...]
    period_ruin_counts: tuple[int, ...]
    imputed_ruin_counts: tuple[int, ...] | None = None


def _grid_index(grid: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Index of the grid state at or below each x, the first or last state
    off the grid's ends: the count of states <= x is guessed from the
    uniform spacing, verified, and searched for where the guess fails."""
    ext = np.concatenate([[-np.inf], grid, [np.inf]])
    step = (grid[-1] - grid[0]) / (grid.size - 1)
    guess = np.clip(np.floor((x - grid[0]) / step) + 1.0, 0.0, grid.size).astype(np.intp)
    # ext[c] <= x < ext[c + 1] says exactly c states lie at or below x
    hit = (ext[guess] <= x) & (x < ext[guess + 1])
    lo = np.where(hit, guess, 0)
    hi = np.where(hit, guess, grid.size)
    count = _search_bracketed(grid, x, lo, hi, side="right")
    return np.clip(count - 1, 0, grid.size - 1)


def simulate_paths(
    policy: PolicyTable,
    config: ModelConfig,
    x0,
    n_paths: int,
    seed: int,
    values=None,
) -> SimResult:
    """Simulate the surplus under ``policy`` from start capital ``x0``.

    ``values``, when given, must hold the stage value functions (one more
    than the horizon) and switches on the imputed per-period counts; the
    sampled paths themselves are unaffected.
    """
    if config.is_infinite:
        raise ValidationError("simulation needs a finite-horizon config")
    n_periods = config.horizon
    grid = config.grid.points()
    n_paths = _integer(n_paths)
    if n_paths < 1:
        raise ValidationError("path count must be at least 1")
    seed = _integer(seed)
    if seed < 0:
        raise ValidationError("seed must be nonnegative")
    x0 = _real(x0)
    if values is not None and len(values) != n_periods + 1:
        raise ValidationError(
            f"expected {n_periods + 1} value functions, got {len(values)}"
        )

    premiums, index, claims = _policy_table(policy, config)
    period_counts = np.zeros(n_periods, dtype=np.int64)
    imputed_counts = np.zeros(n_periods, dtype=np.int64)
    terminal = np.empty(n_paths)
    ruin_total = 0
    done = 0
    batch_index = 0
    while done < n_paths:
        bs = min(_BATCH, n_paths - done)
        rng = np.random.Generator(np.random.Philox(key=seed).jumped(batch_index))
        u = rng.random((bs, n_periods, 2))
        x = np.full(bs, x0)
        ruined = np.zeros(bs, dtype=bool)
        for n in range(n_periods):
            s = config.stage(n)
            # 1-u lies in (0, 1], the quantile map's exact domain
            k = quantile_index(s.dY, 1.0 - u[:, n, 0])
            z = quantile(s.dZ, 1.0 - u[:, n, 1])
            j = _grid_index(grid, x)
            x = x - claims[n][index[n, j], k] - premiums[n, j] + z
            neg = x < 0.0
            period_counts[n] += int(np.count_nonzero(neg))
            if values is not None:
                required = -x + s.beta * values[n + 1](x)
                imputed_counts[n] += int(np.count_nonzero(required > 0.0))
            ruined |= neg
        terminal[done : done + bs] = x
        ruin_total += int(np.count_nonzero(ruined))
        done += bs
        batch_index += 1

    p_hat = ruin_total / n_paths
    half = 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / n_paths)
    terminal_mean = float(terminal.mean())
    # partitions terminal in place rather than a copy, so the mean comes first
    qs = np.quantile(terminal, _QUANTILE_LEVELS, overwrite_input=True)
    return SimResult(
        paths=n_paths,
        ruin_estimate=p_hat,
        ci_half_width=half,
        terminal_mean=terminal_mean,
        terminal_quantiles=tuple(
            (lvl, float(q)) for lvl, q in zip(_QUANTILE_LEVELS, qs)
        ),
        period_ruin_counts=tuple(int(c) for c in period_counts),
        imputed_ruin_counts=(
            tuple(int(c) for c in imputed_counts) if values is not None else None
        ),
    )


def ruin_bound_check(policy: PolicyTable, config: ModelConfig, x0):
    """Union bound on ruin probability plus its precondition certificate.

    Returns (bound, holds): bound is the sum of per-period tail levels
    1 - alpha_n, valid while the policy's cost-to-go stays nonpositive.
    holds reports whether that held at every state visited by the
    worst-case drift path started at ``x0``.
    """
    if config.is_infinite:
        raise ValidationError("the ruin bound applies to finite-horizon configs")
    n_periods = config.horizon
    for n in range(n_periods):
        if config.stage(n).risk.kind != "value-at-risk":
            raise NotVaRConfig("the ruin bound needs value-at-risk at every stage")
    bound = float(sum(1.0 - config.stage(n).risk.alpha for n in range(n_periods)))
    grid = config.grid.points()

    # cost-to-go of the given policy for each start stage
    table = _policy_table(policy, config)
    premiums, index, claims = table
    tails = _policy_values(policy, config, table)

    holds = True
    x = float(x0)
    for n in range(n_periods):
        if tails[n](x) > 0.0:
            holds = False
        s = config.stage(n)
        j = int(np.clip(np.searchsorted(grid, x, side="right") - 1, 0, grid.size - 1))
        # the retained top claim, the last of the ascending claim atoms
        x = x - claims[n][index[n, j], -1] - premiums[n, j] + float(s.dZ.values[0])
    return bound, holds
