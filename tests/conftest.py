"""Test-wide settings.

Hypothesis draws the same examples on every machine and keeps no example
database, so the suite neither varies between runs nor writes .hypothesis/.
"""

from hypothesis import settings

settings.register_profile("orifuse", derandomize=True, database=None)
settings.load_profile("orifuse")
