"""Fixtures and hypothesis profiles shared by the whole suite."""

import contextlib

import pytest
from hypothesis import settings

from repro.sim.backends.vector import VectorBackend

#: ``--hypothesis-profile=ci`` (the backend-equivalence CI job): five times
#: the examples of the default profile tier-1 runs, for every test that
#: does not fix its own count — the differential machine among them
settings.register_profile(
    "ci", max_examples=5 * settings.get_profile("default").max_examples)


@contextlib.contextmanager
def _floor_at(n):
    previous = VectorBackend.TOKEN_SLAB_MIN_N
    VectorBackend.TOKEN_SLAB_MIN_N = n
    try:
        yield
    finally:
        VectorBackend.TOKEN_SLAB_MIN_N = previous


@pytest.fixture
def slab_floor():
    """Set the token family's size floor for the test: ``slab_floor(n)``
    is a context manager, and the floor is 0 (always the slab) outside
    any.  The floor is a measured constant, not an option; the small
    networks of these tests sit below it, so they lower it to reach the
    slab, and put it back when they end."""
    with _floor_at(0):
        yield _floor_at
