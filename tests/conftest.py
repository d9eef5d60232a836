"""Suite-wide hypothesis settings: every run draws the same examples (seeded
from each test's own code), and no example saved by an earlier run is
replayed, so two checkouts of the code are tested on the same cases."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
