"""Shared test settings.

Hypothesis draws its examples from a fixed seed (``derandomize``), so every
tier-1 run checks the same cases, and it keeps no example database.  Tests
still set their own ``max_examples``.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def pytest_configure(config):
    # Hypothesis also caches the literals it harvests from local modules in its
    # home directory (./.hypothesis by default); keep that out of the checkout.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
