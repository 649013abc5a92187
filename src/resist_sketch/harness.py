"""Experiment harness: configured pipelines and Monte Carlo verification.

Each command takes a RunConfig, runs one pipeline (score, sparsify, solve,
or a repeated-trial verification) and returns its payload; run_report times
it and wraps it in the JSON report envelope. All randomness flows from the
config seed: the right-hand side uses sub-stream 0, trial t uses sub-stream
1 + t, so reports are reproducible bit for bit and trials are independent of
each other and of the right-hand side.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import io
from .errors import FactorizationError, ParameterError, check
from .graphs import IncidenceFactors, WeightedGraph, incidence_factors
from .sampling import (
    SamplingPlan,
    build_sparsifier,
    concentration_check,
    sample_count,
)
from .solve import error_report, solve_exact, solve_sparsified
from .spectral import (
    SpectralProfile,
    _reverse_resistances,
    leverage_probabilities,
    spectral_profile,
)
from .version import VERSION

#: worst relative gap between the two resistance routes a resistance report may carry
_CROSS_CHECK_TOL = 1e-8


@dataclass(frozen=True)
class RunConfig:
    """One fully specified run; every field lands in the report verbatim."""

    graph_path: str
    mode: str
    b_path: str | None = None
    epsilon: float = 0.5
    beta: float = 1.0
    c0: float = 1.0
    seed: int = 0
    trials: int = 100
    r_override: int | None = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        check(
            epsilon=self.epsilon, beta=self.beta, c0=self.c0, seed=self.seed, trials=self.trials
        )
        if self.r_override is not None:
            check(r_override=self.r_override)


@dataclass(frozen=True)
class VerifyReport:
    """Aggregate of a Monte Carlo verification run.

    success counts/rates score the relative energy error of each trial's
    sparsified solve against epsilon; the concentration fields score how far
    each trial's sampled Gram matrix strayed from the identity, whose
    guarantee level is sqrt(epsilon)/2 per trial and sqrt(epsilon)/6 in the
    mean. lemma_max_relerr is the worst relative gap between leverage and
    weight times the reverse-order resistances (effective_resistances), a
    per-graph order-independence check that does not vary with the trials;
    it is inf (null in the JSON report) when that elimination is refused.
    """

    trials: int
    success_count: int
    success_rate: float
    epsilon: float
    beta: float
    c0: float
    r: int
    off_theorem: bool
    rank: int
    concentration_bound: float
    concentration_pass_count: int
    concentration_pass_rate: float
    mean_concentration_deviation: float
    concentration_std_error: float
    mean_deviation_target: float
    oversampling_condition: dict[str, Any]
    max_sv_deviation_quantiles: dict[str, float]
    lemma_max_relerr: float
    records: tuple[dict[str, Any], ...]


def trial_seed(seed: int, trial: int) -> int:
    """Derived 64-bit seed for one trial; sub-stream 0 is the right-hand side."""
    ss = np.random.SeedSequence((seed, 1 + trial))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def default_rhs(n: int, seed: int) -> np.ndarray:
    """Zero-sum standard-normal right-hand side derived from the config seed."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    b = rng.standard_normal(n)
    return b - b.mean()


def _load_rhs(cfg: RunConfig, n: int) -> np.ndarray:
    if cfg.b_path is None:
        return default_rhs(n, cfg.seed)
    b = io.load_vector(cfg.b_path)
    if b.shape != (n,):
        raise ParameterError(
            f"right-hand side has {b.size} entries but the graph has {n} vertices"
        )
    return b


def _cross_check(
    factors: IncidenceFactors, profile: SpectralProfile
) -> tuple[np.ndarray | None, float]:
    """Reverse-order resistances and their worst relative gap to leverage/weight.

    The reverse-order elimination (effective_resistances) is built in the
    profile's F (spectral._reverse_resistances), so the profile is spent:
    callers read its rank first and nothing of it after. When that
    elimination is refused (FactorizationError) there are no resistances and
    the gap is infinite.
    """
    leverage = profile.leverage
    try:
        resistance = _reverse_resistances(factors, profile)
    except FactorizationError:
        return None, math.inf
    gap = np.abs(leverage - factors.weights * resistance)
    return resistance, float(np.max(gap / np.maximum(leverage, 1e-300)))


def _plan_for(cfg: RunConfig, profile: SpectralProfile, n: int) -> tuple[SamplingPlan, str]:
    p = leverage_probabilities(profile, beta=cfg.beta)
    if cfg.r_override is not None:
        r, source = cfg.r_override, "override"
    else:
        r, source = sample_count(n, cfg.epsilon, cfg.beta, cfg.c0), "rule"
    plan = SamplingPlan(
        probabilities=p, beta=cfg.beta, epsilon=cfg.epsilon, c0=cfg.c0, r=r, seed=cfg.seed
    )
    return plan, source


def _oversampling_condition(cfg: RunConfig, rank: int) -> dict[str, Any]:
    # Mean-deviation guarantee precondition at the specialized accuracy
    # sqrt(epsilon)/6; holds whenever the rank reaches 4, so only
    # tiny graphs ever report it unsatisfied.
    target = math.sqrt(cfg.epsilon) / 6.0
    lhs = cfg.c0 * cfg.c0 * rank
    rhs = 4.0 * cfg.beta * target * target
    return {"lhs": lhs, "rhs": rhs, "satisfied": bool(lhs >= rhs)}


def _analyze(cfg: RunConfig) -> tuple[WeightedGraph, IncidenceFactors, SpectralProfile]:
    g = io.load_graph(cfg.graph_path)
    factors = incidence_factors(g)
    return g, factors, spectral_profile(factors)


def cmd_leverage(cfg: RunConfig) -> dict[str, Any]:
    """Per-edge leverage scores, resistances, and sampling probabilities."""
    g, factors, profile = _analyze(cfg)
    p = leverage_probabilities(profile, beta=cfg.beta)
    return {
        "n": g.n,
        "m": g.m,
        "rank": profile.rank,
        "leverage": profile.leverage,
        "resistance": profile.resistance,
        "probabilities": p,
        "leverage_sum": float(profile.leverage.sum()),
        "max_leverage": float(profile.leverage.max()),
    }


def cmd_resistance(cfg: RunConfig) -> dict[str, Any]:
    """Effective resistances by a reverse-order elimination, with cross-check.

    The resistances are effective_resistances', the positive elimination in
    reverse vertex order, checked against the profile's leverage / weight
    (forward order). The reverse elimination is built in the profile's F once
    its scores are read, so the run holds one dense factor. A gap above 1e-8,
    or a refused elimination (gap inf), raises FactorizationError, not wrong
    values.
    """
    g, factors, profile = _analyze(cfg)
    rank = profile.rank
    resistance, gap = _cross_check(factors, profile)
    if not gap <= _CROSS_CHECK_TOL:
        raise FactorizationError(
            f"reverse-order resistances disagree with the leverage route by {gap:.3e}"
        )
    return {
        "n": g.n,
        "m": g.m,
        "rank": rank,
        "resistance": resistance,
        "lemma_max_relerr": gap,
    }


def cmd_sparsify(cfg: RunConfig) -> dict[str, Any]:
    """Draw one sparsifier and report its size and concentration deviation."""
    g, factors, profile = _analyze(cfg)
    plan, source = _plan_for(cfg, profile, g.n)
    system = build_sparsifier(factors, plan)
    deviation = concentration_check(profile, system)
    return {
        "n": g.n,
        "m": g.m,
        "rank": profile.rank,
        "r": plan.r,
        "r_source": source,
        "off_theorem": source == "override",
        "distinct_edges": system.distinct_edges,
        "nnz": system.nnz,
        "deviation": deviation,
        "concentration_bound": math.sqrt(cfg.epsilon) / 2.0,
    }


def cmd_solve(cfg: RunConfig) -> dict[str, Any]:
    """Solve the exact and sparsified systems once and compare them."""
    t0 = time.perf_counter()
    g, factors, profile = _analyze(cfg)
    t_analyze = time.perf_counter()
    b = _load_rhs(cfg, g.n)
    plan, source = _plan_for(cfg, profile, g.n)
    t_plan = time.perf_counter()
    exact = solve_exact(factors, b, profile=profile)
    system = build_sparsifier(factors, plan)
    scored = error_report(exact, solve_sparsified(system, b), factors, cfg.epsilon)
    t_done = time.perf_counter()
    return {
        "n": g.n,
        "m": g.m,
        "rank": profile.rank,
        "r": plan.r,
        "r_source": source,
        "off_theorem": source == "override",
        "exact": {
            "x": exact.x,
            "residual_two_norm": exact.residual_two_norm,
            "null_component": exact.null_component,
            "rank": exact.rank,
        },
        "sparsified": dataclasses.asdict(scored),
        "sparsifier": {
            "distinct_edges": system.distinct_edges,
            "nnz": system.nnz,
        },
        "timings": {
            "analyze": t_analyze - t0,
            "plan": t_plan - t_analyze,
            "solve": t_done - t_plan,
        },
    }


def cmd_verify(cfg: RunConfig) -> VerifyReport:
    """Monte Carlo check of the accuracy and concentration guarantees.

    Repeats the sparsify-and-solve pipeline over independent trial seeds;
    the graph analysis, exact solve, and right-hand side are shared, only the
    edge draws differ. Quantile and mean statistics of the
    per-trial concentration deviations come back alongside the success rate
    so both the per-trial and the in-expectation guarantees can be judged.
    The closing cross-check builds in the profile's F once the trials are done.
    """
    g, factors, profile = _analyze(cfg)
    b = _load_rhs(cfg, g.n)
    exact = solve_exact(factors, b, profile=profile)
    plan0, source = _plan_for(cfg, profile, g.n)
    bound = math.sqrt(cfg.epsilon) / 2.0

    records = []
    deviations = np.empty(cfg.trials)
    success_count = 0
    for t in range(cfg.trials):
        seed_t = trial_seed(cfg.seed, t)
        plan = dataclasses.replace(plan0, seed=seed_t)
        system = build_sparsifier(factors, plan)
        scored = error_report(exact, solve_sparsified(system, b), factors, cfg.epsilon)
        deviation = concentration_check(profile, system)
        deviations[t] = deviation
        success_count += bool(scored.success)
        records.append(
            {
                "trial": t,
                "seed": seed_t,
                "energy_error": scored.energy_error,
                "relative_energy_error": scored.relative_energy_error,
                "success": scored.success,
                "deviation": deviation,
                "deviation_within_bound": bool(deviation <= bound),
                "distinct_edges": system.distinct_edges,
                "nnz": system.nnz,
                "rank": scored.rank,
            }
        )

    # no trial reads F past here, so the cross-check may build in it
    gap = _cross_check(factors, profile)[1]
    pass_count = int(np.count_nonzero(deviations <= bound))
    if cfg.trials > 1:
        std_error = float(np.std(deviations, ddof=1) / math.sqrt(cfg.trials))
    else:
        std_error = float("nan")
    quantiles = {
        f"q{q}": float(np.percentile(deviations, q)) for q in (0, 25, 50, 75, 100)
    }
    return VerifyReport(
        trials=cfg.trials,
        success_count=success_count,
        success_rate=success_count / cfg.trials,
        epsilon=cfg.epsilon,
        beta=cfg.beta,
        c0=cfg.c0,
        r=plan0.r,
        off_theorem=source == "override",
        rank=profile.rank,
        concentration_bound=bound,
        concentration_pass_count=pass_count,
        concentration_pass_rate=pass_count / cfg.trials,
        mean_concentration_deviation=float(deviations.mean()),
        concentration_std_error=std_error,
        mean_deviation_target=math.sqrt(cfg.epsilon) / 6.0,
        oversampling_condition=_oversampling_condition(cfg, profile.rank),
        max_sv_deviation_quantiles=quantiles,
        lemma_max_relerr=gap,
        records=tuple(records),
    )


def _jsonable(value: Any) -> Any:
    """Plain-Python, JSON-safe copy: numpy scalars unwrapped, non-finite → None."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind == "f" and np.isfinite(value).all():
            return value.tolist()  # plain floats already, in one pass
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        f = float(value)
        return f if math.isfinite(f) else None
    return value


_COMMANDS = {
    "leverage": cmd_leverage,
    "resistance": cmd_resistance,
    "sparsify": cmd_sparsify,
    "solve": cmd_solve,
    "verify": cmd_verify,
}
MODES = tuple(_COMMANDS)


def run_report(cfg: RunConfig) -> dict[str, Any]:
    """Run cfg.mode's command, time it, and wrap its payload in the report envelope."""
    t0 = time.perf_counter()
    results = _COMMANDS[cfg.mode](cfg)
    if dataclasses.is_dataclass(results):
        results = dataclasses.asdict(results)
    results.setdefault("timings", {})["total"] = time.perf_counter() - t0
    return _jsonable(
        {
            "mode": cfg.mode,
            "config": dataclasses.asdict(cfg),
            "results": results,
            "version": VERSION,
        }
    )
