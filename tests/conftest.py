"""Hypothesis settings for the whole suite: every counterexample prints its
``@reproduce_failure`` blob, so one found elsewhere (in CI, say) can be replayed
here, not only from the example database of the machine that found it."""
from hypothesis import settings

settings.register_profile("cnzsynth", print_blob=True)
settings.load_profile("cnzsynth")
