"""Randomized edge sampling and Laplacian sparsification.

Edges are drawn i.i.d. with replacement from a probability vector that is
(or dominates a fraction of) the normalized leverage scores. Each draw
contributes its edge's rank-1 Laplacian term rescaled by 1/(r p_i), so the
sparsifier is an unbiased estimator of the full Laplacian. It depends on the
draws only through the per-edge counts c_i, which are drawn directly: the
sparsifier is the subset of drawn edges, edge i reweighted by c_i / (r p_i).
Neither the r-length draw sequence nor the r-column sampling operator is
ever materialized, so memory does not grow with r.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsymv
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .errors import FactorizationError, ParameterError, check
from .graphs import IncidenceFactors, _edge_factors
from .spectral import SpectralProfile, _eliminate, _grounded_gram

_PROB_SUM_TOL = 1e-12
#: Gram rank from which the concentration check runs Lanczos instead of eigvalsh;
#: measured at one BLAS thread, eigvalsh is the faster below ranks 200-250
_LANCZOS_RANK = 256


@dataclass(frozen=True)
class SamplingPlan:
    """Everything needed to reproduce one sparsification run.

    probabilities   per-edge sampling distribution, sums to one
    beta            leverage-floor fraction the distribution is assumed to meet
    epsilon         target relative accuracy of the downstream solve
    c0              oversampling constant in the sample-count rule
    r               number of i.i.d. draws, below 2**63
    seed            64-bit RNG seed; fixes the per-edge draw counts exactly
    """

    probabilities: np.ndarray
    beta: float
    epsilon: float
    c0: float
    r: int
    seed: int

    def __post_init__(self) -> None:
        p = np.asarray(self.probabilities, dtype=float).copy()
        if p.ndim != 1 or p.size == 0:
            raise ParameterError("probabilities must be a non-empty 1-D vector")
        if not np.all(np.isfinite(p)) or np.any(p < 0.0):
            raise ParameterError("probabilities must be finite and non-negative")
        if abs(p.sum() - 1.0) > _PROB_SUM_TOL:
            raise ParameterError(f"probabilities sum to {float(p.sum())!r}, not 1")
        check(beta=self.beta, epsilon=self.epsilon, c0=self.c0, seed=self.seed, r=self.r)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def m(self) -> int:
        return int(self.probabilities.size)


@dataclass(frozen=True)
class SparsifiedSystem:
    """A reweighted subset of a graph's edges, whose Laplacian is the sparsifier.

    edges       indices of the drawn edges, ascending
    factors     IncidenceFactors of the drawn edges, in that order, weighted
                w_i c_i / (r p_i), c_i the edge's draw count; weights reads them
    elimination the Laplacian's positive elimination (spectral._eliminate), made
                on first read; the sparsified solve and concentration_check finish it
    nnz         the Laplacian's stored entries as a sparse matrix, counted from
                the edges without assembling it
    """

    edges: np.ndarray
    factors: IncidenceFactors

    @property
    def weights(self) -> np.ndarray:
        return self.factors.weights

    @property
    def distinct_edges(self) -> int:
        return int(self.edges.size)

    @functools.cached_property
    def elimination(self) -> tuple:
        return _eliminate(self.factors)

    @property
    def nnz(self) -> int:
        # laplacian_of stores a degree for each vertex an edge touches and both
        # entries of each distinct vertex pair, every drawn weight being positive
        lo, hi, n = self.factors.lo, self.factors.hi, self.factors.n
        vertices = np.count_nonzero(np.bincount(np.concatenate((lo, hi)), minlength=n))
        pairs = np.count_nonzero(np.diff(np.sort(lo * n + hi), prepend=-1))
        return vertices + 2 * pairs


def sample_count(n: int, epsilon: float, beta: float = 1.0, c0: float = 1.0) -> int:
    """Number of draws required for the accuracy guarantee.

    Evaluates ceil(2 x ln x) with x = 36 c0^2 n / (beta epsilon). The rule is
    deliberately not capped at the edge count: sampling with replacement past
    m keeps the guarantee, and at small n the count routinely exceeds m. A
    count past float64's range raises ParameterError.
    """
    if n < 1:
        raise ParameterError(f"vertex count must be positive, got {n}")
    check(epsilon=epsilon, beta=beta, c0=c0)
    x = 36.0 * c0 * c0 * n / (beta * epsilon)
    if x <= 1.0:
        raise ParameterError(
            f"sample-count rule needs 36 c0^2 n / (beta epsilon) > 1, got {x!r}"
        )
    count = 2.0 * x * math.log(x)
    if not math.isfinite(count):
        raise ParameterError(f"sample-count rule overflows: 2 x ln x is {count!r} at x = {x!r}")
    return math.ceil(count)


def draw_counts(plan: SamplingPlan) -> np.ndarray:
    """Per-edge counts of plan.r i.i.d. draws from plan.probabilities.

    The sparsifier depends on the draws only through these counts, so they
    are drawn directly as one multinomial vector, seeded by plan.seed: O(m)
    time and memory for any r. numpy hands any rounding remainder of the
    probabilities to the last category, so the draw is restricted to the
    edges with mass and zero-probability edges get no draws by construction.
    Same seed and same numpy give the same counts.
    """
    support = np.flatnonzero(plan.probabilities > 0.0)
    counts = np.zeros(plan.m, dtype=np.int64)
    rng = np.random.default_rng(plan.seed)
    counts[support] = rng.multinomial(plan.r, plan.probabilities[support])
    counts.setflags(write=False)
    return counts


def build_sparsifier(factors: IncidenceFactors, plan: SamplingPlan) -> SparsifiedSystem:
    """Keep the drawn edges, reweighted.

    Edge i drawn c_i times contributes c_i w_i b_i b_i^T / (r p_i), i.e. one
    edge of weight w_i c_i / (r p_i). The counts come from draw_counts(plan).
    """
    if plan.m != factors.m:
        raise ParameterError(
            f"plan covers {plan.m} edges but the graph has {factors.m}"
        )
    counts = draw_counts(plan)
    hit = np.flatnonzero(counts)
    p = plan.probabilities[hit]
    if np.any(p == 0.0):
        raise RuntimeError("drew an edge with zero probability")
    weights = factors.weights[hit] * (counts[hit] / (plan.r * p))
    drawn = _edge_factors(factors.n, factors.lo[hit], factors.hi[hit], weights)
    hit.setflags(write=False)
    return SparsifiedSystem(edges=hit, factors=drawn)


def concentration_check(profile: SpectralProfile, system: SparsifiedSystem) -> float:
    """Spectral-norm deviation of the sparsifier's sampled Gram matrix from identity.

    With Phi the scaled incidence and H = F[row_map] centred, U = Phi H is an
    orthonormal basis of Phi's range, and with D the rescalings c_i / (r p_i)
    the sampled Gram matrix U^T D U is G = H^T L' H, L' = Phi^T D Phi the
    sparsifier's Laplacian. It is finished from system.elimination and the
    profile's F, never H, as the upper triangle of a matrix with G's
    eigenvalues (spectral._grounded_gram). Returns max |lambda(G) - 1|, which
    the guarantee controls; a sparsifier that splits a component scores at
    least 1. From rank _LANCZOS_RANK on, ARPACK Lanczos on G - I, applied by
    dsymv from that triangle, finds it from a fixed start, so repeated calls
    agree bit for bit; below that, or when ARPACK fails, a full eigvalsh of
    the triangle. A deviation past max(1, trace(G) - 1), trace(G) = sum_i
    w'_i R_i with R the profile's resistances, is round-off across a faint
    bridge: FactorizationError.
    """
    drawn, n = system.factors, profile.row_map.size
    if n != drawn.n:
        raise ParameterError(f"profile has {n} vertices but the sparsifier has {drawn.n}")
    gram = _grounded_gram(system.elimination, profile.factor, profile.row_map)
    rank = gram.shape[0]
    trace = float(np.dot(drawn.weights, profile.resistance[system.edges]))
    deviation = None
    if rank >= _LANCZOS_RANK:
        diagonal = np.diag_indices(rank)
        kept = gram[diagonal]
        gram[diagonal] -= 1.0
        v0 = np.random.default_rng(0).standard_normal(rank)
        # the upper triangle of gram is the lower of its Fortran-ordered transpose
        shifted = LinearOperator(
            (rank, rank), matvec=functools.partial(dsymv, 1.0, gram.T, lower=1), dtype=float
        )
        try:
            top = eigsh(shifted, k=1, which="LM", v0=v0, tol=0, return_eigenvectors=False)
            deviation = float(abs(top[0]))
        except ArpackError:
            gram[diagonal] = kept
    if deviation is None:
        deviation = float(np.max(np.abs(np.linalg.eigvalsh(gram, UPLO="U") - 1.0)))
    if deviation > max(1.0, trace - 1.0) * (1.0 + 1e-8):
        raise FactorizationError(f"deviation {deviation!r} is past what trace {trace!r} allows")
    return deviation
