"""Leverage scores, effective resistances, and a factor of the Laplacian pseudoinverse.

The leverage score of edge i is the i-th diagonal entry of the projection
onto the column space of the weight-scaled incidence matrix, equal to the
squared i-th row norm of any orthonormal basis of that space. Dividing by the
edge weight gives the effective resistance, which this module also computes a
second way, by the same positive elimination with the vertex order reversed,
so that the two orders can be checked against each other.

This is the exact score oracle, intended for desk-scale instances: about
n^3/3 flops of GEMM for the factor, n^3/3 more of dtrmm and dtrtri for its
triangular inverse, and m n for the resistances; a concentration check
forms the triangle M of its Gram matrix in n^3/6 multiply-adds and M M^T in
n^3/6 more. Each elimination is one record, ``_Elimination``, whose dense
(rank + 1) x rank array becomes L^T, then F in place in the profile; the
inverse by halves borrows up to three quarter-size blocks while it runs,
each elimination one small panel buffer, and the Gram's triangle product
one block of _TRTRI_ORDER rows. Nothing writes to a profile's arrays
once it is built. The reverse order allocates an array of its own, so the
``resistance`` mode drops the profile before it runs and holds one such
array at a time, as ``leverage`` does; ``solve`` adds the sampled system's
elimination, and ``sparsify`` and ``verify`` that and the concentration
check's rank x rank Gram. Approximate scores enter only through the ``beta``
slack of ``leverage_probabilities``; no approximation algorithm lives here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import FactorizationError, ParameterError, check
from .graphs import IncidenceFactors, WeightedGraph, _centre, _components, incidence_factors


@dataclass(frozen=True)
class SpectralProfile:
    """Spectral summary of a graph's weight-scaled incidence matrix.

    leverage        per-edge scores in [0, 1]; they sum to ``rank``
    resistance      per-edge effective resistances, leverage / weight
    rank            n - #components
    factor          (rank + 1) x rank upper-triangular F = L^-T D^-1/2 of the
                    grounded Laplacian's positive elimination; its last row,
                    the grounds', is zero (see spectral_profile)
    row_map         each vertex's row of F: the i-th non-ground's is i, every
                    ground's is rank
    labels          component labels of the vertices (graphs._components)

    H = F[row_map] centred per component has H H^T = L^+, and the scaled
    incidence times H is an orthonormal basis of its range. Nothing forms H:
    the scores, concentration_check and solve_exact read F, row_map, labels.
    """

    leverage: np.ndarray
    resistance: np.ndarray
    rank: int
    factor: np.ndarray
    row_map: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class _Elimination:
    """``_grounded_weights``' record of the edges; ``_eliminate`` makes a L^T and pivots D."""

    labels: np.ndarray
    row_map: np.ndarray
    half: int
    a: np.ndarray
    pivots: np.ndarray

    @property
    def rank(self) -> int:
        return self.pivots.size


#: vertices eliminated per panel before one Schur update of the rest
_PANEL = 32
#: largest triangle that one dtrtri inverts; larger ones are split in halves
_TRTRI_ORDER = 64
#: bytes of edge differences per resistance chunk: cache-sized, so the buffers are reused
_EDGE_CHUNK_BYTES = 1 << 18


def spectral_profile(factors: IncidenceFactors) -> SpectralProfile:
    """Exact leverage scores and resistances from a positive LDL^T of the grounded Laplacian.

    One vertex per component is grounded. The rest are eliminated in order,
    carried on the edge weights as Ye (Math. Comp. 2008) does: each pivot is a
    vertex's total weight to the vertices not yet eliminated and to the grounds,
    and each step adds nonnegative fill, so nothing is ever subtracted and the
    factors are accurate entrywise at any weight span. With F = L^-T D^-1/2
    (zero rows at the grounds), edge (u, v) has resistance ||F[u] - F[v]||^2.
    F is upper triangular, so that sum starts at the smaller of the two rows.
    A pivot that underflows to zero, or scores that miss Foster's sum (the
    rank) by over 1e-8 * rank, as when a resistance overflows, mean the
    weights span past float64: FactorizationError.
    """
    if factors.m < 1:
        raise ParameterError("graph has no edges")
    with np.errstate(all="ignore"):
        e = _eliminate(factors)
        rank, at, labels, f = e.rank, e.row_map, e.labels, e.a  # F = L^-T D^-1/2 2**-h in a
        f[rank] = 0.0
        if not _invert_unit_upper(f[:rank]):
            raise FactorizationError(f"inverting the rank-{rank} triangular factor failed")
        f *= np.ldexp(1.0 / np.sqrt(e.pivots), -e.half)
        u, v = at[factors.lo], at[factors.hi]
        first = np.minimum(u, v)  # row u of F is zero left of column u, the grounds' row everywhere
        order = np.argsort(first)
        first, last = first[order], np.maximum(u, v)[order]
        resistance = np.empty(factors.m)
        start = 0
        while start < factors.m:
            c = first[start]
            stop = start + max(1, _EDGE_CHUNK_BYTES // (8 * (rank - c)))
            diffs = f[first[start:stop], c:]
            diffs -= f[last[start:stop], c:]
            resistance[order[start:stop]] = np.einsum("ij,ij->i", diffs, diffs)
            start = stop
        leverage = factors.weights * resistance
        total = float(leverage.sum())
    if not abs(total - rank) <= 1e-8 * rank:  # Foster: leverage sums to the rank
        raise FactorizationError(
            f"leverage scores sum to {total!r}, not the rank {rank}: weights span too far"
        )
    for arr in (leverage, resistance, f, at, labels):
        arr.setflags(write=False)
    return SpectralProfile(
        leverage=leverage, resistance=resistance, rank=rank, factor=f, row_map=at, labels=labels
    )


def _grounded_weights(edges: IncidenceFactors) -> _Elimination:
    """Ground one vertex per component and scale the weights; nothing else does either.

    Returns the edges' record: labels, row map at, h, pivots np.empty(rank),
    and the dense (rank + 1) x rank weights a, each times 2**(-2h), which
    centres their span on 1: exact, and no weighted degree can overflow. For
    i < j < rank, a[i, j] sums the edges between the i-th and j-th
    non-grounds and a[rank, j] those from the j-th to the grounds; the rest of
    a is zero. Each consumer undoes the scaling on its result with one ldexp.
    np.add.at sums the edges into a, fresh zeros, in edge order.
    """
    lo, hi, weights = edges.lo, edges.hi, edges.weights
    labels, keep = _components(edges.n, lo, hi)
    rank = int(np.count_nonzero(keep))
    half = round((math.log2(weights.max()) + math.log2(weights.min())) / 4) if weights.size else 0
    at = np.where(keep, np.cumsum(keep) - 1, rank)
    # hi is never a ground (each component's is its first vertex), so at[lo] < at[hi]
    # or lo is a ground, whose weights land in row rank
    a = np.zeros((rank + 1, rank))
    np.add.at(a.reshape(-1), at[lo] * rank + at[hi], np.ldexp(weights, -2 * half))
    return _Elimination(labels, at, half, a, np.empty(rank))


@np.errstate(all="ignore")  # a pivot that is not positive and finite is refused below
def _eliminate(edges: IncidenceFactors) -> _Elimination:
    """Positive L D L^T of the edges' grounded Laplacian, in ``_grounded_weights``' record.

    Its a becomes the unit upper L^T in place (a[:rank]) and its pivots D,
    L D L^T the grounded Laplacian times 2**(-2h); only the profile and the
    finishes below read them. Left-looking, upper triangle only, in panels of
    _PANEL: before panel K, one GEMM, a[K, K+] += (Y^T D) Y over every earlier
    row, Y <= 0 the finished rows of L^T (row rank, the grounds', included),
    gives it its current weights; within it, each vertex costs one sum and one
    rank-1 update (dger), its weight outside the panel being one extra column
    of p; the panel's last vertex keeps only that column, its pivot. Then the
    panel's inverse block, W = L_KK^-1 / -D_K by one small dtrtri, takes its
    weights to the rest of its rows of L^T by one GEMM. Every product sums
    terms of one sign. A pivot that is not positive and finite raises
    FactorizationError.
    """
    e = _grounded_weights(edges)
    rank, a, pivots = e.rank, e.a, e.pivots
    ground = a[rank]
    dger = scipy.linalg.blas.dger
    p, steps = _panel(min(rank, _PANEL))
    for k0 in range(0, rank, _PANEL):
        k1 = min(k0 + _PANEL, rank)
        if k1 - k0 < len(p):  # the last panel is short and gets a buffer of its own
            p, steps = _panel(k1 - k0)
        earlier = a[:k0, k0:k1].T * pivots[:k0]
        a[k0:k1, k0:] += earlier @ a[:k0, k0:]
        ground[k0:k1] += earlier @ ground[:k0]
        p[:, :-1] = a[k0:k1, k0:k1]
        p[:, -1] = a[k0:k1, k1:].sum(axis=1) + ground[k0:k1]
        for k, (row, tail, inner, below) in enumerate(steps, k0):
            pivot = pivots[k] = np.add.reduce(tail)
            # p[k+1:, k+1:] += row[k+1:-1, None] row[k+1:] / pivot, in place on the Fortran-
            # ordered transpose of rows k+1:; what lands left of column k+1 is never read
            dger(1.0 / pivot, row, inner, 1, 1, below, 1, 1, 1)
        pivots[k1 - 1] = p[-1, -1]
        # row k of p still holds the weights it was eliminated with
        block = np.triu(p[:, :-1], 1) / -pivots[k0:k1, None]
        np.fill_diagonal(block, 1.0)
        a[k0:k1, k0:k1] = block
        # W = L_KK^-1 / -D_K <= 0, L_KK = block^T inverted in place (a unit triangle always
        # inverts), takes the panel's weights to its rows of L^T
        scipy.linalg.lapack.dtrtri(block.T, lower=1, unitdiag=1, overwrite_c=1)
        w = block.T / -pivots[k0:k1, None]
        a[k0:k1, k1:] = w @ a[k0:k1, k1:]
        ground[k0:k1] = w @ ground[k0:k1]
    bad = np.flatnonzero(~(np.isfinite(pivots) & (pivots > 0.0)))
    if bad.size:
        raise FactorizationError(
            f"pivot {int(bad[0])} of the rank-{rank} grounded Laplacian is "
            f"{float(pivots[bad[0]])!r}: weights span too far"
        )
    return e


def _panel(width: int) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """``_eliminate``'s width x (width + 1) panel buffer p and each step's views of it.

    Step k, for every vertex of the panel but the last, reads p[k], p[k, k+1:],
    p[k, k+1:-1] and p.T[:, k+1:]; built once, they serve every panel of the width.
    """
    p = np.empty((width, width + 1))
    return p, [(p[k], p[k, k + 1 :], p[k, k + 1 : -1], p.T[:, k + 1 :]) for k in range(width - 1)]


def _invert_unit_upper(u: np.ndarray) -> bool:
    """Invert the unit upper-triangular u, <= 0 off its diagonal, in place; False if dtrtri fails.

    [[A, B], [0, C]]^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]]: the halves recurse
    down to blocks of _TRTRI_ORDER, which dtrtri inverts, and the corner is two
    dtrmm on Fortran-ordered copies of the blocks. A^-1, C^-1 >= 0 and B <= 0,
    so every sum has terms of one sign.
    """
    n = u.shape[0]
    if n <= _TRTRI_ORDER:
        # u^T is lower and Fortran-ordered; dtrtri inverts a block of a larger u in a copy
        inverse, info = scipy.linalg.lapack.dtrtri(u.T, lower=1, unitdiag=1, overwrite_c=1)
        u[...] = inverse.T
        return info == 0
    h = n // 2
    if not (_invert_unit_upper(u[:h, :h]) and _invert_unit_upper(u[h:, h:])):
        return False
    dtrmm = scipy.linalg.blas.dtrmm
    # the corner's transpose, -C^-T B^T A^-T
    corner = dtrmm(-1.0, u[h:, h:].T, u[:h, h:].T, lower=1, diag=1)
    u[:h, h:] = dtrmm(1.0, u[:h, :h].T, corner, side=1, lower=1, diag=1, overwrite_b=1).T
    return True


def _upper_product(a: np.ndarray, b: np.ndarray) -> None:
    """b[:n] = a[:n] b[:n] in place, both (n + 1) x n with upper-triangular first n rows.

    By blocks of _TRTRI_ORDER rows, top down: rows I become a[I, I:] b[I:, I:],
    which reads only rows of b at or below I, none yet overwritten. Each
    block is one dtrmm that reads b's triangle in place (``_from_diagonal``)
    and a's rows from a copy, which becomes the block: n^3/6 multiply-adds
    in all, and no rank^2 temporary. The lower triangle of b stays zero.
    """
    n = b.shape[1]
    for i0 in range(0, n, _TRTRI_ORDER):
        i1 = min(i0 + _TRTRI_ORDER, n)
        # (a[I, I:] b[I:, I:])^T = b[I:, I:]^T a[I, I:]^T, b^T lower
        block = scipy.linalg.blas.dtrmm(1.0, _from_diagonal(b, i0).T, a[i0:i1, i0:].T, lower=1)
        b[i0:i1, i0:] = block.T


def _from_diagonal(x: np.ndarray, i: int) -> np.ndarray:
    """The n - i rows of x's buffer from x[i, i] on, each n long, a view.

    Row r holds x[r, i:], then the first i entries of row r + 1, so the last
    runs i entries into row n, which x must have. Its transpose is
    Fortran-ordered with leading dimension n and x[i:, i:]^T in its first
    n - i rows: a triangle BLAS reads in place, where x[i:, i:].T would be copied.
    """
    n = x.shape[1]
    return x.reshape(-1)[i * n + i : n * n + i].reshape(n - i, n)


def _grounded_solve(e: _Elimination, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimal-norm x with L x = b, and L's rank: two triangular solves on L's elimination."""
    keep, lower = e.row_map < e.rank, e.a[: e.rank].T  # L, Fortran-ordered
    x, y = np.zeros(b.size), _centre(b, e.labels)[keep]
    if e.rank:
        y = scipy.linalg.blas.dtrsv(lower, y, lower=1, diag=1, overwrite_x=1) / e.pivots
        y = scipy.linalg.blas.dtrsv(lower, y, lower=1, trans=1, diag=1, overwrite_x=1)
        x[keep] = np.ldexp(y, -2 * e.half)
    return _centre(x, e.labels), e.rank


def _factor_solve(profile: SpectralProfile, b: np.ndarray) -> tuple[np.ndarray, int]:
    """x = L^+ b from the profile's F, row map and labels: two triangular products, two centrings.

    L^+ = H H^T, H = F[row_map] centred per component, and F's ground row is
    zero, so H^T b = F[:rank]^T (b centred)[non-grounds].
    """
    rank, labels = profile.rank, profile.labels
    keep, lower = profile.row_map < rank, profile.factor[:rank].T  # F^T, Fortran-ordered
    y = scipy.linalg.blas.dtrmv(lower, _centre(b, labels)[keep], lower=1, overwrite_x=1)
    x = np.zeros(b.size)
    x[keep] = scipy.linalg.blas.dtrmv(lower, y, lower=1, trans=1, overwrite_x=1)
    return _centre(x, labels, out=x), rank


def _grounded_gram(e: _Elimination, profile: SpectralProfile) -> np.ndarray:
    """H^T L H from ``_eliminate`` of L's edges and the profile's F, in the upper triangle.

    With H = F[row_map] centred and Y the rows of F at L's non-grounds minus
    those at their component's ground (its first vertex, as in
    ``_components``), H^T L H = M^T M, M = 2**h D^1/2 L^T Y: the centring and
    the shift cancel in L H. When L keeps F's rank, it keeps the components,
    so the grounds and row map are F's, Y is F[:rank] and M is upper
    triangular: ``_upper_product`` forms L^T Y in a copy of F (its zero
    ground row the room ``_from_diagonal`` needs) in n^3/6 multiply-adds,
    and dlauum writes M M^T, which has M^T M's spectrum, over the upper
    triangle of M in n^3/6 more. A draw short of F's rank gathers Y, which is
    full, and forms L^T Y by one dtrmm and M^T M whole. Either way the upper
    triangle is what to read.
    """
    rank, f, row_map = e.rank, profile.factor, profile.row_map
    full = rank == profile.rank
    if full:
        y = np.array(f)
        _upper_product(e.a, y)
        y = y[:rank]
    else:
        keep = e.row_map < rank
        grounds = np.unique(e.labels, return_index=True)[1][e.labels[keep]]
        y = f[row_map[keep]] - f[row_map[grounds]]
        # Y^T L in place of Y^T, both Fortran-ordered, is (L^T Y)^T
        y = scipy.linalg.blas.dtrmm(
            1.0, e.a[:rank].T, y.T, side=1, lower=1, diag=1, overwrite_b=1
        ).T
    y *= np.ldexp(np.sqrt(e.pivots), e.half)[:, None]
    if not full:
        return y.T @ y
    # M^T, Fortran-ordered and lower, takes M M^T in its lower triangle: M's upper
    return scipy.linalg.lapack.dlauum(y.T, lower=1, overwrite_c=1)[0].T


def effective_resistances(g: WeightedGraph | IncidenceFactors) -> np.ndarray:
    """Per-edge effective resistances from the positive elimination in reverse vertex order.

    The resistances of ``spectral_profile`` run on the same edges with vertex
    v relabelled n - 1 - v: each component is grounded at its last vertex and
    eliminated from the other end, so the round-off path differs while every
    step still sums positive terms. Against the profile's own resistances
    this is an order-independence check; like the profile it raises
    FactorizationError past float64's range. Takes a graph or its incidence
    factors.
    """
    factors = g if isinstance(g, IncidenceFactors) else incidence_factors(g)
    if factors.m == 0:
        return np.zeros(0)
    last = factors.n - 1
    flipped = IncidenceFactors(factors.n, last - factors.hi, last - factors.lo, factors.weights)
    return spectral_profile(flipped).resistance


#: slack for validating supplied probabilities against the leverage floor
_VALIDATION_TOL = 1e-12


def leverage_probabilities(
    profile: SpectralProfile,
    beta: float = 1.0,
    candidate: np.ndarray | None = None,
) -> np.ndarray:
    """Sampling probabilities proportional to leverage, or validated substitutes.

    With no candidate, returns leverage normalized by its sum (the exact
    distribution; spectral_profile has checked that the sum is the rank, so
    the result sums to one to machine precision and meets the floor for any beta).
    A candidate distribution is accepted only if it sums to one within 1e-12
    and every entry is at least beta * leverage_i / sum(leverage), the
    approximate-probability floor.
    """
    check(beta=beta)
    total = float(profile.leverage.sum())
    if total <= 0.0:
        raise ParameterError("leverage scores sum to zero; nothing to sample")
    if candidate is None:
        p = profile.leverage / total
        p.setflags(write=False)
        return p
    p = np.asarray(candidate, dtype=float)
    if p.shape != profile.leverage.shape:
        raise ParameterError(
            f"candidate has shape {p.shape}, expected {profile.leverage.shape}"
        )
    if abs(p.sum() - 1.0) > _VALIDATION_TOL:
        raise ParameterError(f"candidate probabilities sum to {float(p.sum())!r}, not 1")
    floor = beta * profile.leverage / total
    bad = np.flatnonzero(p + _VALIDATION_TOL < floor)
    if bad.size:
        i = int(bad[0])
        raise ParameterError(
            f"probability {float(p[i])!r} at index {i} is below the "
            f"leverage floor {float(floor[i])!r}"
        )
    return p
