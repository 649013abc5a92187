"""Minimal-norm Laplacian solves and energy-norm error reports.

Both the exact and the sparsified problem are solved through the
pseudoinverse, so components of the right-hand side in the null space
(constants, per connected component) are discarded rather than amplified.
Solution quality is judged in the energy quadratic form x^T L x of the
original Laplacian, the squared quantity the sparsification guarantee
bounds. No square root is taken anywhere; tests compare like with like.

Every Laplacian is read as edges, IncidenceFactors with L = B^T diag(w) B; a
Laplacian matrix passed in is read through its strict upper triangle, so an
overflowed diagonal is never read. The products with B come from the edge
arrays: B x is x[lo] - x[hi], and B^T y sums each vertex's terms in edge
order, as a sparse B^T would. Without a profile, the pseudoinverse is
applied by two unit-triangular solves on the edges' positive elimination,
whose factor keeps a faint bridge that an assembled diagonal would absorb.
Results past float64's range raise FactorizationError.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .errors import FactorizationError, ParameterError, check
from .graphs import IncidenceFactors
from .spectral import SpectralProfile, _eliminate, _factor_solve, _grounded_solve

#: below this times max(1, ||x|| ||L x||), the reference energy x^T L x counts
#: as zero and the ratio is undefined
_NULL_ENERGY_FLOOR = 1e-18
#: absolute energy-error bar that stands in for the ratio test in that case
_NULL_ENERGY_SUCCESS = 1e-12


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one pseudoinverse solve, optionally scored against an exact one.

    x                   minimal 2-norm least-squares solution
    residual_two_norm   ||A x - b||_2 for the matrix actually solved
    null_component      |sum(x)|; near zero for connected graphs
    rank                rank of the solved matrix: n - #components of its graph
    energy_error        (x_exact - x)^T L (x_exact - x), filled by error_report
    relative_energy_error  energy_error / (x_exact^T L x_exact); None when the
                        reference energy is zero
    success             relative error within the target, or the absolute
                        fallback when the ratio is undefined
    """

    x: np.ndarray
    residual_two_norm: float
    null_component: float
    rank: int
    energy_error: float | None = None
    relative_energy_error: float | None = None
    success: bool | None = None


def _edges(L) -> IncidenceFactors:
    """L if it is IncidenceFactors, else the edges of its strict upper triangle, negated.

    The one place a Laplacian matrix becomes edges; parallel edges arrive
    summed and stored zeros are no edges. A matrix that is not square, or an
    off-diagonal entry that is not finite and <= 0, is no Laplacian's:
    ParameterError.
    """
    if isinstance(L, IncidenceFactors):
        return L
    if L.shape[0] != L.shape[1]:
        raise ParameterError(f"Laplacian has shape {L.shape}, which is not square")
    pairs = sparse.triu(L, k=1, format="coo")
    weights = -pairs.data
    bad = np.flatnonzero(~((weights >= 0.0) & (weights < np.inf)))
    if bad.size:
        i, j, x = pairs.row[bad[0]], pairs.col[bad[0]], float(pairs.data[bad[0]])
        raise ParameterError(
            f"off-diagonal entry ({i}, {j}) is {x!r}; a Laplacian's are finite and <= 0"
        )
    edge = weights > 0.0
    return IncidenceFactors(L.shape[0], pairs.row[edge], pairs.col[edge], weights[edge])


def _vector(v, n: int, what: str) -> np.ndarray:
    """v as a float array of n finite entries, one per vertex; ParameterError otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ParameterError(f"{what} has shape {v.shape}, expected ({n},)")
    if not np.all(np.isfinite(v)):
        raise ParameterError(f"{what} must be finite")
    return v


def _solved(factors: IncidenceFactors, b, apply) -> SolveReport:
    """Check b against the edges, solve by apply(b) -> (x, rank), and report ||L x - b||."""
    b = _vector(b, factors.n, "right-hand side")
    x, rank = apply(b)
    # the norm of the residual scaled by a power of two, which no square can overflow
    residual, k = _unit_scaled(_laplacian_times(factors, x) - b)
    return SolveReport(
        x=x,
        residual_two_norm=_ldexp(float(np.linalg.norm(residual)), k, "residual norm"),
        null_component=float(abs(x.sum())),
        rank=rank,
    )


def solve_exact(L, b: np.ndarray, profile: SpectralProfile | None = None) -> SolveReport:
    """Minimal 2-norm solution of the full Laplacian system.

    L is IncidenceFactors or a Laplacian matrix (see _edges). With a spectral
    profile the pseudoinverse is applied through its triangular factor F,
    x = H (H^T b) without forming H; otherwise the edges are eliminated and
    solved as solve_sparsified solves. The residual is ||L x - b||.
    """
    factors = _edges(L)
    if profile is None:
        return _solved(factors, b, lambda b: _grounded_solve(_eliminate(factors), b))
    n = profile.row_map.size
    if n != factors.n:
        raise ParameterError(f"profile is for {n} vertices, graph has {factors.n}")
    return _solved(factors, b, lambda b: _factor_solve(profile, b))


def solve_sparsified(system, b: np.ndarray) -> SolveReport:
    """Minimal 2-norm solution of a sampled Laplacian system, from system.elimination.

    That factor is the one the concentration check reads. The pseudoinverse is
    taken at the sampled system's own rank, n minus the number of components
    of the drawn edges, which falls short of the original's when the draw
    misses a bridge; the report's rank field makes that visible.
    """
    return _solved(system.factors, b, lambda b: _grounded_solve(system.elimination, b))


def energy_norm(L, x: np.ndarray) -> float:
    """The quadratic form x^T L x (a squared quantity, by convention).

    L is IncidenceFactors or a Laplacian matrix (see _edges), and x has one
    entry per vertex, all finite. The form is the squared weighted flow norm
    sum_i w_i (Bx)_i^2, which cannot go negative. It is summed by
    _scaled_energy, the flows scaled by a power of two and the weights by
    2**-a, a > 0 only where m of them could sum past float64, so no square
    or sum overflows and no weight underflows that did not have to; a result
    past float64's range raises FactorizationError.
    """
    factors = _edges(L)
    x = _vector(x, factors.n, "solution")
    top = math.frexp(float(np.max(factors.weights, initial=0.0)))[1]  # every weight < 2**top
    a = max(0, top + factors.m.bit_length() - 1023)
    energy, k = _scaled_energy(factors, x, a)
    return _ldexp(energy, a + k, "energy")


def _laplacian_times(factors: IncidenceFactors, x: np.ndarray, a: int = 0) -> np.ndarray:
    """L x 2**-a as B^T (w 2**-a * B x), each vertex's terms summed in edge order, lo then hi."""
    lo, hi = factors.lo, factors.hi
    y = np.ldexp(factors.weights, -a) * (x[lo] - x[hi])
    out = np.zeros(factors.n)
    np.add.at(out, np.column_stack((lo, hi)).ravel(), np.column_stack((y, -y)).ravel())
    return out


def _ldexp(x: float, k: int, name: str) -> float:
    """x * 2**k; FactorizationError where that is past float64's range."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        raise FactorizationError(f"{name} {x!r} * 2**{k} is past float64's range") from None


def _unit_scaled(v: np.ndarray) -> tuple[np.ndarray, int]:
    """(v 2**-k, k) for the power of two that brings v's largest entry into [0.5, 1); exact."""
    _, k = math.frexp(float(np.max(np.abs(v), initial=0.0)))
    return np.ldexp(v, -k), k


def _scaled_energy(factors: IncidenceFactors, x: np.ndarray, a: int) -> tuple[float, int]:
    """x^T L x 2**-a = sum_i w_i 2**-a (B x)_i^2 as (e, k), that being e * 2**k.

    The flow B x is first scaled by the power of two that brings its largest
    entry into [0.5, 1), so no square under- or overflows when the flows near
    either end of the float range.
    """
    flow, half = _unit_scaled(x[factors.lo] - x[factors.hi])
    return float(np.dot(np.ldexp(factors.weights, -a), flow * flow)), 2 * half


def error_report(exact: SolveReport, sparsified: SolveReport, L, epsilon: float) -> SolveReport:
    """Score a sparsified solve against the exact one in the energy norm.

    L, the original Laplacian, is IncidenceFactors or a matrix (see _edges),
    and both solutions have one entry per vertex. When the reference energy
    is zero (right-hand side entirely in the null space) the ratio is
    undefined and reported as None; the run then counts as a success only if
    the absolute energy error is negligible.

    The energies are summed with the weights divided by 2**a, the power of
    two that brings the largest into [1, 2), and each flow scaled likewise,
    so both stay representable, and their ratio defined, however far the
    weights push x toward the ends of the float range. The zero test reads
    that weight-scaled system, so it is the same for weights scaled by any
    power of two and, for a = 0, the unscaled test. The scalings are exact:
    where nothing under- or overflows the figures equal the unscaled sums.
    """
    check(epsilon=epsilon)
    L = _edges(L)
    for x in (exact.x, sparsified.x):
        _vector(x, L.n, "solution")
    a = math.frexp(float(np.max(L.weights, initial=0.0)))[1] - 1
    error, k_error = _scaled_energy(L, exact.x - sparsified.x, a)
    reference, k_reference = _scaled_energy(L, exact.x, a)
    energy_error = _ldexp(error, a + k_error, "energy error")
    # x^T L x <= ||x|| ||L x|| (Cauchy-Schwarz): a floor that grows with x as
    # the energy does, where ||x||^2 would outgrow it across a faint bridge.
    # Both sides are those of the weight-scaled system, x 2**a and L 2**-a;
    # with x = y 2**k, its bound is ||y|| ||L 2**-a y|| 2**(2k + 2a), and
    # both sides are compared times 2**-t, t >= that exponent, so neither
    # the norms nor the comparison can overflow
    y, k = _unit_scaled(exact.x)
    ly = _laplacian_times(L, y, a)
    exponent = 2 * (k + a)
    t = max(0, exponent)
    bound = float(np.linalg.norm(y) * np.linalg.norm(ly))
    floor = _NULL_ENERGY_FLOOR * max(math.ldexp(1.0, -t), math.ldexp(bound, exponent - t))
    if math.ldexp(reference, k_reference + 2 * a - t) <= floor:
        relative, success = None, energy_error <= _NULL_ENERGY_SUCCESS
    else:
        relative = _ldexp(error / reference, k_error - k_reference, "relative energy error")
        success = relative <= epsilon
    return dataclasses.replace(
        sparsified,
        energy_error=energy_error,
        relative_energy_error=relative,
        success=bool(success),
    )
