"""Shared fixtures: precision contexts, coupling parameters, seeded RNG."""

import random

import pytest

from mirror_spectra import ModularParam, make_context
from mirror_spectra.invariants import SEED as RNG_SEED
from mirror_spectra.spectral import trace_orbit


@pytest.fixture(scope="session")
def ctx192():
    """Production-grade context: 192 bits, tol 1e-40."""
    return make_context(192, 1e-40)


@pytest.fixture(scope="session")
def ctx64():
    """Fast smoke-test context."""
    return make_context(64, 1e-10)


@pytest.fixture(scope="session")
def mpar_pi4(ctx192):
    """Coupling theta = pi/4 (q = e^{-pi}), the main worked case."""
    return ModularParam.from_theta("pi/4", ctx192)


@pytest.fixture(scope="session")
def orbit1_192(ctx192, mpar_pi4):
    """The 48-point sheet-1 orbit at pi/4, 192 bits, traced once per run."""
    return trace_orbit(1, 48, mpar_pi4, ctx192)


@pytest.fixture(scope="session")
def orbit2_192(ctx192, mpar_pi4):
    """The 48-point sheet-2 orbit at pi/4, 192 bits, traced once per run."""
    return trace_orbit(2, 48, mpar_pi4, ctx192)


@pytest.fixture()
def rng():
    """Deterministic RNG so property sweeps are reproducible."""
    return random.Random(RNG_SEED)
