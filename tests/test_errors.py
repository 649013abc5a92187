"""The shared error contract: one domain rule per parameter, and numerical
failures that surface as FactorizationError instead of wrong numbers."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import resist_sketch as rs
from resist_sketch import solve, spectral

_TRIANGLE = rs.WeightedGraph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


def _run_config(**bad):
    rs.RunConfig(graph_path="graph.txt", mode="leverage", **bad)


def _sampling_plan(**bad):
    fields = dict(
        probabilities=np.full(3, 1.0 / 3.0), beta=1.0, epsilon=0.5, c0=1.0, r=10, seed=0
    )
    rs.SamplingPlan(**{**fields, **bad})


def _sample_count(**bad):
    rs.sample_count(10, **{"epsilon": 0.5, **bad})


def _leverage_probabilities(**bad):
    rs.leverage_probabilities(rs.spectral_profile(rs.incidence_factors(_TRIANGLE)), **bad)


def _error_report(**bad):
    report = rs.SolveReport(x=np.zeros(3), residual_two_norm=0.0, null_component=0.0, rank=2)
    rs.error_report(report, report, sparse.identity(3), **bad)


#: every place that takes the parameter, with the bad values and their message
_SITES = {
    "epsilon": (_run_config, _sampling_plan, _sample_count, _error_report),
    "beta": (_run_config, _sampling_plan, _sample_count, _leverage_probabilities),
    "c0": (_run_config, _sampling_plan, _sample_count),
    "seed": (_run_config, _sampling_plan),
}
_BAD = {
    "epsilon": [
        (0.0, "epsilon must be in (0, 1), got 0.0"),
        (1.0, "epsilon must be in (0, 1), got 1.0"),
        (float("nan"), "epsilon must be in (0, 1), got nan"),
    ],
    "beta": [
        (0.0, "beta must be in (0, 1], got 0.0"),
        (1.5, "beta must be in (0, 1], got 1.5"),
    ],
    "c0": [
        (0.0, "c0 must be positive, got 0.0"),
        (-1.0, "c0 must be positive, got -1.0"),
    ],
    "seed": [
        (-1, "seed must be an unsigned 64-bit integer, got -1"),
        (2**64, "seed must be an unsigned 64-bit integer, got 18446744073709551616"),
        (1.5, "seed must be an unsigned 64-bit integer, got 1.5"),
        (np.int64(-3), f"seed must be an unsigned 64-bit integer, got {np.int64(-3)!r}"),
    ],
}


@pytest.mark.parametrize(
    "site, name, value, message",
    [
        pytest.param(site, name, value, message, id=f"{site.__name__[1:]}-{name}={value}")
        for name, sites in _SITES.items()
        for site in sites
        for value, message in _BAD[name]
    ],
)
def test_one_rule_per_parameter(site, name, value, message):
    with pytest.raises(rs.ParameterError) as info:
        site(**{name: value})
    assert str(info.value) == message


def _failing_svd(monkeypatch, fail_drivers):
    """Make scipy's SVD raise LinAlgError for the given LAPACK drivers."""
    real = scipy.linalg.svd

    def svd(a, *args, lapack_driver="gesdd", **kwargs):
        if lapack_driver in fail_drivers:
            raise scipy.linalg.LinAlgError("SVD did not converge")
        return real(a, *args, lapack_driver=lapack_driver, **kwargs)

    monkeypatch.setattr(scipy.linalg, "svd", svd)


class TestNumericalFailure:
    def test_gesvd_fallback_gives_same_profile(self, monkeypatch):
        g = rs.random_connected(12, np.random.default_rng(4), extra_edge_prob=0.3)
        factors = rs.incidence_factors(g)
        expected = rs.spectral_profile(factors)
        _failing_svd(monkeypatch, {"gesdd"})
        fallback = rs.spectral_profile(factors)
        assert fallback.rank == expected.rank
        np.testing.assert_allclose(fallback.leverage, expected.leverage, atol=1e-12)
        np.testing.assert_allclose(fallback.resistance, expected.resistance, atol=1e-12)
        np.testing.assert_allclose(
            fallback.singular_values, expected.singular_values, rtol=1e-12
        )

    def test_both_drivers_failing_raises_with_condition(self, monkeypatch):
        _failing_svd(monkeypatch, {"gesdd", "gesvd"})
        with pytest.raises(rs.FactorizationError) as info:
            spectral.spectral_profile(rs.incidence_factors(rs.path(4)))
        # the path's Laplacian has eigenvalues 2 - sqrt(2), 2, 2 + sqrt(2)
        expected = np.sqrt((2.0 + np.sqrt(2.0)) / (2.0 - np.sqrt(2.0)))
        assert info.value.condition_estimate == pytest.approx(expected, rel=1e-9)
        assert "condition estimate" in str(info.value)

    def test_system_solve_svd_failing_raises(self, monkeypatch):
        _failing_svd(monkeypatch, {"gesdd"})
        with pytest.raises(rs.FactorizationError, match="system matrix failed"):
            solve._pinv_apply(rs.laplacian_of(_TRIANGLE), np.array([1.0, 0.0, -1.0]))
