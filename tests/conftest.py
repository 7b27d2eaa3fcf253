"""Marks every test that uses the session-wide preset runs as slow, so that
`pytest -m "not slow"` skips the figure presets altogether."""

import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if "preset_runs" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
