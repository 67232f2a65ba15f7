"""DDIM inversion: each step solved as a fixed point, with or without acceleration.

The exact reverse of a DDIM update from t to t_prev satisfies

    z_t = sqrt(ab_t / ab_prev) * z_prev + coeff(t, t_prev) * eps(z_t, t),

an implicit equation because the noise prediction is evaluated at the
unknown z_t.  Each inversion step therefore solves z = f(z) for the map
built by `fixed_point_map`.  Plain iteration z <- f(z) converges linearly
for contractive predictors; the Anderson variant extrapolates over a short
window of residuals, and the averaged variant blends the last two map
evaluations with fixed weights (0.5, 0.5).  The linearized (forward-Euler)
baseline is the same solver at zero iterations: its step is the first map
evaluation f(z_prev), which evaluates the noise at the current state and
is exact only when the prediction does not depend on z.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (DivergenceError, all_finite, check_choice, check_count, check_finite,
                     check_instance, check_real)
from .metrics import l2, relative_l2
from .predictor import CallCounter, NoisePredictor, PromptId, guided_epsilon
from .sampler import sample_trajectory
from .schedule import NoiseSchedule, inversion_eps_coeff


VARIANTS = ("plain", "averaged", "anderson")


@dataclass(frozen=True)
class FixedPointConfig:
    """Iteration budget and acceleration settings for one inversion step.

    `iters` fixes the number of iterations unless `residual_tol` > 0 stops
    earlier.  `window` is the Anderson history length m, kept as given;
    the other variants do not read it.  `variant` must be one of
    `VARIANTS`, both counts integers >= 1, and `residual_tol` finite and
    >= 0.
    """

    variant: str = "averaged"
    iters: int = 6
    window: int = 2
    residual_tol: float = 0.0

    def __post_init__(self):
        check_choice("variant", self.variant, VARIANTS)
        check_count("iters", self.iters, 1)
        check_count("window", self.window, 1)
        check_real("residual_tol", self.residual_tol, 0.0)


@dataclass
class InversionReport:
    """Residual traces and cost accounting for one inversion run.

    `step_traces` holds (timestep, residual norms per iteration); a
    zero-iteration (Euler) step records an empty trace.  `nfe` counts
    noise-predictor calls (two per guided evaluation).  `round_trip_l2` is
    filled by `round_trip`, which resamples and measures the reconstruction.
    """

    step_traces: list[tuple[int, list[float]]] = field(default_factory=list)
    nfe: int = 0
    round_trip_l2: float | None = None


def fixed_point_map(
    schedule: NoiseSchedule,
    pred: NoisePredictor,
    z_prev,
    t: int,
    t_prev: int,
    cond: PromptId,
    omega: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """The implicit inversion map f of the step t_prev -> t, whose fixed point is the exact z_t.

    f(z) = sqrt(ab_t / ab_prev) * z_prev + coeff * guided_eps(z, t) with
    coeff = sqrt(1 - ab_t) - sqrt((1 - ab_prev) * ab_t / ab_prev).  At a
    fixed point, a subsequent `ddim_step` recovers z_prev exactly.  The
    noise is evaluated at time t, matching the step being solved for.
    The step's set-up (both noise levels from `schedule.levels`, whose
    timestep rule it adds t_prev != t to, coeff and the drift term
    sqrt(ab_t / ab_prev) * z_prev) is done once, here, so a bad pair, or a
    `schedule` or `pred` of the wrong type, raises ValueError naming it
    before any predictor call; each call of the returned map
    costs one `guided_epsilon` and one axpy, which checks `cond` and
    `omega` at the map's first call, before any predictor call.
    """
    ab_t, ab_p = check_instance("schedule", schedule, NoiseSchedule).levels(t, t_prev)
    check_instance("pred", pred, NoisePredictor)
    if t_prev == t:
        raise ValueError(f"need t_prev < t, got {t_prev} >= {t}")
    drift = math.sqrt(ab_t / ab_p) * np.asarray(z_prev, dtype=np.float64)
    coeff = inversion_eps_coeff(ab_t, ab_p)

    def f(z) -> np.ndarray:
        return drift + coeff * guided_epsilon(pred, np.asarray(z, dtype=np.float64), cond, omega, t)

    return f


# Relative determinant floor of `anderson_weights`' closed-form 2x2 solve.
GRAM_FLOOR = 1e-12


def anderson_weights(residual_history) -> np.ndarray:
    """Combination weights minimizing || sum_j gamma_j g_j ||_2 with sum(gamma) = 1.

    The constraint is eliminated by expressing the last weight as one minus
    the others, leaving an unconstrained least-squares problem on the
    differences d_j = g_j - g_last (Walker & Ni 2011), so the weights meet
    it up to rounding.  A history of 1, 2 or 3 equally shaped residuals is
    solved in closed form: the 1x1 or 2x2 normal equations (Fang & Saad
    2009) in the dots a = d_0.d_0, b = d_0.d_1, c = d_1.d_1 and
    r_j = -d_j.g_last, by Cramer's rule.  Normal equations square the
    condition number, so that form is used only when every dot, the
    determinant det = a c - b^2 and each weight are finite, a > 0 and
    det > GRAM_FLOOR * a * c (1e-12: the differences are more than about
    1e-6 rad from parallel).  Otherwise, and for every longer history,
    `np.linalg.lstsq` solves it with a singular-value cutoff relative to the
    largest singular value of the differences, so a degenerate history gets
    the minimum-norm weights (0, ..., 0, 1), i.e. a plain iteration, as does
    a history whose residuals or differences are not finite.
    """
    k = len(residual_history)
    if k == 0:
        raise ValueError("residual history must be nonempty")
    if k <= 3:
        g = [np.asarray(r, dtype=np.float64) for r in residual_history]
        last = g[-1]
        if all(r.shape == last.shape for r in g):
            d = [r - last for r in g[:-1]]
            rhs = [-float(np.vdot(dj, last)) for dj in d]
            beta = None
            if k == 1:
                beta = []
            elif 0.0 < (a := float(np.vdot(d[0], d[0]))) < math.inf:
                if k == 2:
                    beta = [rhs[0] / a]
                else:
                    b, c = float(np.vdot(d[0], d[1])), float(np.vdot(d[1], d[1]))
                    det = a * c - b * b
                    if det > GRAM_FLOOR * a * c:  # false, too, if b, c or det is not finite
                        beta = [(rhs[0] * c - b * rhs[1]) / det, (a * rhs[1] - b * rhs[0]) / det]
            if beta is not None and all(map(math.isfinite, beta)):
                return np.array(beta + [1.0 - sum(beta)])
    g = np.array(residual_history, dtype=np.float64).reshape(k, -1)
    diffs = (g[:-1] - g[-1]).T
    if not (np.isfinite(diffs).all() and np.isfinite(g[-1]).all()):
        plain = np.zeros(k)
        plain[-1] = 1.0
        return plain
    beta = np.linalg.lstsq(diffs, -g[-1], rcond=None)[0]
    return np.concatenate((beta, [1.0 - float(np.sum(beta))]))


def iterative_invert_step(
    f: Callable[[np.ndarray], np.ndarray],
    z_prev,
    t: int,
    cfg: FixedPointConfig | None,
) -> tuple[np.ndarray, list[float]]:
    """Solve z = f(z) from z_prev by accelerated iteration.

    Starts from z^0 = z_prev, z^1 = f(z^0), then for i = 1..iters records
    the residual g^i = f(z^i) - z^i (its `l2` norm, finite whenever g^i
    is, goes into the trace) and, while i < iters, forms z^{i+1} as the
    combination sum_j gamma_j * f(z^j) over the last min(m, i) + 1 map
    values, with gamma from Anderson least squares over the matching
    residuals (window m; `anderson_weights` solves histories of up to
    three residuals in closed form, so every combination at m <= 2 and
    the first two at any m, and uses `lstsq` for the rest and as the
    fallback), the fixed pair (0.5, 0.5) for the averaged variant, or
    (0, 1) for plain iteration.  Returns (z^iters, residual
    trace), or an earlier iterate when `residual_tol` > 0 is reached.  Each
    map evaluation and residual is formed once, so a step with I iterations
    costs exactly I + 1 evaluations and I - 1 combinations, and holds only
    the map values and residuals its variant combines, whatever I is: one
    of each for plain iteration, two for averaged, m + 1 for Anderson.
    cfg=None runs zero iterations: the linearized (Euler) step returns
    (z^1, []) at one evaluation.  A `cfg` that is neither a FixedPointConfig
    nor None raises ValueError naming it before the first map evaluation,
    and a non-finite iterate raises DivergenceError naming the step by its
    timestep `t`, which labels nothing else.
    """
    check_instance("cfg", cfg, FixedPointConfig, optional=True)
    iters = 0 if cfg is None else cfg.iters
    z = np.asarray(z_prev, dtype=np.float64)
    # Only the map values and residuals the variant combines are ever read.
    width = 1 if cfg is None else {"plain": 1, "averaged": 2}.get(cfg.variant, cfg.window + 1)
    f_win: deque[np.ndarray] = deque(maxlen=width)
    g_win: deque[np.ndarray] = deque(maxlen=width)
    trace: list[float] = []
    for i in range(iters + 1):
        f_win.append(f(z))
        g_win.append(f_win[-1] - z)
        if i > 0:
            res_norm = l2(g_win[-1])
            trace.append(res_norm)
            if i == iters or (cfg.residual_tol > 0.0 and res_norm <= cfg.residual_tol):
                return z, trace
        if i == 0 or cfg.variant == "plain":
            z = f_win[-1]
        elif cfg.variant == "averaged":
            z = 0.5 * f_win[0] + 0.5 * f_win[1]
        else:
            gamma = anderson_weights(g_win)
            z = sum(w * fz for w, fz in zip(gamma, f_win))
        if not all_finite(z):
            raise DivergenceError(step_t=t, iteration=i + 1)
    return z, trace


def invert_trajectory(
    schedule: NoiseSchedule,
    pred: NoisePredictor,
    z_0,
    cond: PromptId,
    omega,
    cfg: FixedPointConfig | None,
) -> tuple[np.ndarray, InversionReport]:
    """Invert a clean latent across the scheduled timesteps in increasing order.

    Each step solves its `fixed_point_map` with `iterative_invert_step`
    under `cfg`; cfg=None is the zero-iteration (forward-Euler) baseline.
    Returns the final noise vector and a report with per-step residual
    traces and the noise-predictor call count.  A `schedule` or `pred` of
    the wrong type, or a z_0 entry that is not a finite real, raises
    ValueError naming it on entry; `cfg` follows `iterative_invert_step`'s
    rule and `cond` and `omega` `guided_epsilon`'s, each checked before
    the first predictor call.
    """
    check_instance("schedule", schedule, NoiseSchedule)
    counter = CallCounter(check_instance("pred", pred, NoisePredictor))
    z = check_finite(z_0, "z_0")
    traces: list[tuple[int, list[float]]] = []
    for t_prev, t in schedule.inversion_pairs():
        f = fixed_point_map(schedule, counter, z, t, t_prev, cond, omega)
        z, trace = iterative_invert_step(f, z, t, cfg)
        traces.append((t, trace))
    return z, InversionReport(step_traces=traces, nfe=counter.calls)


def round_trip(
    schedule: NoiseSchedule,
    pred: NoisePredictor,
    z_0,
    cond: PromptId,
    omega,
    cfg: FixedPointConfig | None,
) -> tuple[np.ndarray, np.ndarray, InversionReport]:
    """Invert a clean latent, then resample it under the same prompt and scale.

    Returns the noise vector, the reconstruction and the inversion report
    with `round_trip_l2` set to the reconstruction's relative L2 error.
    """
    z_t, report = invert_trajectory(schedule, pred, z_0, cond, omega, cfg)
    z_rec = sample_trajectory(schedule, pred, z_t, cond, omega)[-1]
    report.round_trip_l2 = relative_l2(z_rec, z_0)
    return z_t, z_rec, report
