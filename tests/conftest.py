"""The `ci` hypothesis profile, loaded with `pytest --hypothesis-profile=ci`.

It derandomizes every hypothesis test, so a CI verdict does not depend on
the draw. Runs without the option stay random and keep exploring.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
