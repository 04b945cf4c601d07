"""Hypothesis profiles.

``ci`` derandomizes the property tests: each run draws the same examples,
so a property that fails in CI fails the same way on a local run of
``pytest --hypothesis-profile=ci``.  Without the option the default
profile keeps exploring new random examples.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
