"""Test settings shared by the suite.

Hypothesis runs under a derandomized profile: each property test draws the
same examples on every run, and no example fails for running slowly on a
loaded machine.  `pytest --hypothesis-profile default` loads Hypothesis's
own profile instead, which draws fresh examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
