"""Suite-wide settings.

A failing Hypothesis test prints its ``@reproduce_failure`` line, so a
failure found in one checkout replays in another from the log alone (the
example database in ``.hypothesis/`` is not shared).  Example counts and
deadlines stay those of Hypothesis's default profile and each test's own
``@settings``.
"""

from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")
