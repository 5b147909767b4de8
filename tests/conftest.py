"""One hypothesis profile for every property test: no deadline, derandomized
examples, and no example database, so runs are reproducible and write
nothing under the repository."""

from hypothesis import settings

settings.register_profile("galim", deadline=None, derandomize=True, database=None)
settings.load_profile("galim")
