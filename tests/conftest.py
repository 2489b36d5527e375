"""Shared fixtures: baseline optical / channel parameter sets."""

import pytest


@pytest.fixture
def optics():
    from ringqkd.linkbudget import OpticalParams

    return OpticalParams()


@pytest.fixture
def turbulence():
    from ringqkd.linkbudget import TurbulenceProfile

    return TurbulenceProfile()


@pytest.fixture
def epsilons():
    from ringqkd.keyrate import SecurityEpsilons

    return SecurityEpsilons()


@pytest.fixture
def channel_base():
    from ringqkd.keyrate import ChannelModel

    # Baseline device parameters; tests pass the arm efficiencies per case.
    return ChannelModel()
