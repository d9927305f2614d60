"""Shared fixtures."""

import importlib
import pkgutil

import pytest

import tpsgeo


def package_caches():
    """Every functools.cache bound at module level in the tpsgeo package."""
    found = {}
    for info in pkgutil.iter_modules(tpsgeo.__path__):
        module = importlib.import_module(f"tpsgeo.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


# collected before any test patches a module, so the package's own caches
# are the ones cleared
CACHES = package_caches()


@pytest.fixture
def clear_caches():
    """Empty every tpsgeo cache before and after the test, so that a
    mutation test never reads a cached good object and leaves no cached
    mutant behind."""
    for cached in CACHES:
        cached.cache_clear()
    yield
    for cached in CACHES:
        cached.cache_clear()
