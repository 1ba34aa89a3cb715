"""Setup shared by every test module."""

import warnings

# A failing hypothesis property is reported through
# hypothesis.extra._patching, which imports libcst where it is installed.
# libcst's import raises a DeprecationWarning (from mypy_extensions), which
# pyproject's "error::DeprecationWarning" turns into an error inside pytest's
# report hook: the run ends in INTERNALERROR. Imported once here, with only
# this import's DeprecationWarnings ignored, every filter stays strict for
# serfkit and its tests.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
