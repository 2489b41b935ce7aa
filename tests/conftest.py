"""Test configuration: the hypothesis properties draw the same examples on
every run (derandomize), so a failure reproduces by running the suite again.
hypothesis is optional; the tests that need it skip without it."""

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover
    pass
else:
    settings.register_profile("deterministic", derandomize=True)
    settings.load_profile("deterministic")
