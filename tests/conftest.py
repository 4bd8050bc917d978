"""Fixtures over the toy environments of ``oracles``."""
import pytest

from oracles import TabularPolicyFeatures, make_diamond_mdp


@pytest.fixture
def diamond():
    return make_diamond_mdp()


@pytest.fixture
def diamond_features():
    return TabularPolicyFeatures(4, 2)
