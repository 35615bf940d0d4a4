"""Fixtures shared by the test modules."""

import pytest

import sinklap.experiments


@pytest.fixture
def sample_calls(monkeypatch):
    """The seeds of the dataset draws the experiment drivers make."""
    calls = []
    real = sinklap.experiments.sample_dataset

    def counting(n, spec, seed):
        calls.append(seed)
        return real(n, spec, seed)

    monkeypatch.setattr(sinklap.experiments, "sample_dataset", counting)
    return calls
