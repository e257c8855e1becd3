"""Suite-wide test settings.

Every hypothesis test draws the same examples on every run (`derandomize`)
and keeps no example database.  Hypothesis also caches the literals it
mines from the package source at collection; that cache goes to a
temporary directory removed when the session ends, so a run leaves no
`.hypothesis/` directory in the checkout.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")


def pytest_configure(config):
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    set_hypothesis_home_dir(home.name)
