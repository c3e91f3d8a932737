"""The benchmark's tracer still finds the package entry points it wraps.

perfbench/tracing.py patches lambdadet from outside, by name, and rebuilds
condensation layers from the pyramids that symbolic_pyramid returns.  These
tests import it read-only and run it on a tiny case, so a rename or a
change of call path in the package shows up here and not only in the slow
benchmark self-check.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

import lambdadet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("tracing")


def test_tracer_sees_the_layers_and_the_numeric_engine(tracing):
    tracer = tracing.Tracer()
    with tracer.tracing_op(lambdadet, "probe", True):
        lambdadet.condensation.perturbed_det(lambdadet.matrices.diamond_even(3))
    profile = tracer.layer_profile()
    assert sorted(profile) == list(range(1, 7))
    _seconds, _largest, total = profile[6]
    assert total == 64

    with tracer.tracing_op(lambdadet, "numeric", False):
        top = lambdadet.condensation.numeric_pyramid(lambdadet.matrices.diamond_even(2), 1).top
    assert top == 36
    summary = tracer.summary()
    assert summary["condensation.numeric"]["calls"] == 1
    # The fixed-l run condenses on its own, not through symbolic_pyramid.
    assert summary["condensation.symbolic"]["calls"] == 1


def test_tracer_sees_every_sweep(tracing):
    # The per-layer tilings metrics read matching_sum's spans, so every
    # count, halved or not, must still pass through it by name.
    tracer = tracing.Tracer()
    with tracer.tracing_op(lambdadet, "square", False):
        assert lambdadet.count_tilings(lambdadet.square_region(6)) == 6728
    sweeps = tracer.summary()["tilings.matching_sum"]
    assert (sweeps["calls"], sweeps["amount"]) == (1, 36)

    tracer = tracing.Tracer()
    with tracer.tracing_op(lambdadet, "kuo", False):
        assert lambdadet.kuo_identity_check(2).holds
    assert tracer.summary()["tilings.matching_sum"]["calls"] == 6
