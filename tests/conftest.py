"""Hooks of the test suite: the --linecov option, from _linecov.py."""

from _linecov import (  # noqa: F401 - pytest finds hooks by name here
    pytest_addoption,
    pytest_configure,
    pytest_sessionfinish,
    pytest_terminal_summary,
)
