"""The shared error contract: one domain rule per parameter, and numerical
failures that surface as FactorizationError instead of wrong numbers."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse

import resist_sketch as rs
from resist_sketch import spectral

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
    "trials": (_run_config,),
    "r_override": (_run_config,),
    "r": (_sampling_plan,),
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
    "trials": [
        (0, "trials must be a positive integer, got 0"),
        (2.0, "trials must be a positive integer, got 2.0"),
        (np.int64(-1), f"trials must be a positive integer, got {np.int64(-1)!r}"),
    ],
    "r_override": [
        (0, "r override must be a positive integer, got 0"),
        (2.0, "r override must be a positive integer, got 2.0"),
    ],
    "r": [
        (0, "sample count must be a positive integer below 2**63, got 0"),
        (2**63, f"sample count must be a positive integer below 2**63, got {2**63}"),
        (10.0, "sample count must be a positive integer below 2**63, got 10.0"),
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


def _failing(monkeypatch, name):
    """Make scipy.linalg.lapack.<name> return its input with info 1, a failed factor."""
    monkeypatch.setattr(scipy.linalg.lapack, name, lambda a, **kwargs: (a, 1))


def _zeroed(monkeypatch):
    """Make spectral._grounded_weights zero its record's weights, so pivot 0 is zero."""
    weights = spectral._grounded_weights

    def zeroed(*args):
        e = weights(*args)
        return dataclasses.replace(e, a=0.0 * e.a)

    monkeypatch.setattr(spectral, "_grounded_weights", zeroed)


class TestNumericalFailure:
    def test_zero_pivot_in_profile_raises(self, monkeypatch):
        # a forced zero pivot: the profile's elimination sees no weights at all
        _zeroed(monkeypatch)
        with pytest.raises(rs.FactorizationError, match="pivot 0 of the rank-3 grounded"):
            spectral.spectral_profile(rs.incidence_factors(rs.path(4)))

    def test_zero_pivot_in_sampled_elimination_raises(self, monkeypatch):
        # a forced zero pivot in the sampled system's elimination, made on first read
        factors = rs.incidence_factors(_TRIANGLE)
        plan = rs.SamplingPlan(
            probabilities=np.full(3, 1.0 / 3.0), beta=1.0, epsilon=0.5, c0=1.0, r=10, seed=0
        )
        system = rs.build_sparsifier(factors, plan)
        _zeroed(monkeypatch)
        with pytest.raises(rs.FactorizationError, match="pivot 0 of the rank-2 grounded"):
            rs.solve_sparsified(system, np.array([1.0, 0.0, -1.0]))

    @pytest.mark.parametrize(
        "fault, n",
        [
            pytest.param("pivot", 4, id="pivot"),
            pytest.param("dtrtri", 4, id="dtrtri"),
            pytest.param("dtrtri", 101, id="dtrtri-by-halves"),
        ],
    )
    def test_failing_inverse_raises(self, monkeypatch, fault, n):
        # the reverse-order elimination refuses as the profile's does: a
        # forced zero pivot, or a triangular inverse that fails, also when the
        # rank-100 triangle is inverted by halves and one of its blocks fails
        if fault == "pivot":
            _zeroed(monkeypatch)
        else:
            _failing(monkeypatch, fault)
        if n == 101:
            assert n - 1 > spectral._TRTRI_ORDER  # the triangle is split
        with pytest.raises(rs.FactorizationError, match=f"rank-{n - 1}"):
            rs.effective_resistances(rs.path(n))
