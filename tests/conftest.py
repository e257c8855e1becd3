"""Suite-wide test settings.

Every hypothesis test draws the same examples on every run (`derandomize`)
and keeps no example database.  Hypothesis also caches the literals it
mines from the package source at collection; that cache goes to a
temporary directory removed when the session ends, so a run leaves no
`.hypothesis/` directory in the checkout.

The `ensemble_calls` fixture counts the ensembles a runner draws.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)


@pytest.fixture
def ensemble_calls(monkeypatch):
    """The list of limits._ensemble calls made while the test runs; any call
    of the CLT's sigma^2 stage, limits._clt_sigma_sq, fails the test."""
    from skewprod import limits

    calls = []
    ensemble = limits._ensemble

    def counted(*args, **kwargs):
        calls.append(args)
        return ensemble(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("_clt_sigma_sq was called")

    monkeypatch.setattr(limits, "_ensemble", counted)
    monkeypatch.setattr(limits, "_clt_sigma_sq", refused)
    return calls
