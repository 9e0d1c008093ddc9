"""Session-wide test setup."""

import pytest


@pytest.fixture(autouse=True, scope="session")
def _hypothesis_unicode_tables():
    """Build Hypothesis's unicode tables before the first test body.

    On a checkout with no ``.hypothesis`` directory, the first
    ``st.text()`` draw builds the category charmap and the utf-8 codec
    table (seconds on a slow host) inside that test's first example,
    which then fails Hypothesis's ``too_slow`` health check.  Built
    here, both are cached in memory and under ``.hypothesis`` before
    any example is timed.
    """
    try:
        from hypothesis.internal.charmap import charmap, intervals_from_codec
    except ImportError:  # no Hypothesis, or one laid out differently
        return
    charmap()
    intervals_from_codec("utf-8")
