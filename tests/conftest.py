"""Keep hypothesis's caches in a temporary directory for the test session.

Hypothesis otherwise writes a ``.hypothesis/`` directory into the working
directory (a source-constants cache) even when no example database is used.
"""

import tempfile

try:
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip themselves
    set_hypothesis_home_dir = None

_home = None


def pytest_configure(config):
    global _home
    if set_hypothesis_home_dir is not None:
        _home = tempfile.TemporaryDirectory(prefix="hypothesis-")
        set_hypothesis_home_dir(_home.name)


def pytest_unconfigure(config):
    if _home is not None:
        set_hypothesis_home_dir(None)
        _home.cleanup()
