"""Test-suite settings: every hypothesis property test is deterministic.

``derandomize`` derives the examples from each test itself, so a run repeats
the previous one; ``deadline=None`` keeps a slow machine from failing an
example on time alone.  A test's own ``@settings`` still sets its
``max_examples``.
"""

from hypothesis import settings

settings.register_profile("commix", derandomize=True, deadline=None)
settings.load_profile("commix")
