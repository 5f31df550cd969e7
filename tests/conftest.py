"""One hypothesis profile for the whole suite: derandomised, so a run is
repeatable, and with no deadline, since timings on a shared machine vary."""

from hypothesis import settings

settings.register_profile("suite", max_examples=50, derandomize=True, deadline=None)
settings.load_profile("suite")
