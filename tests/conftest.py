import pytest

from helpers import clear_memos


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts and ends with empty memos, so a test that replaces a
    solver or `iterate` sees a fresh solve and leaves no result behind.  A
    Recurrence keeps its closed forms on itself, so such a test also builds
    its own Recurrence instead of reusing a module-level one."""
    clear_memos()
    yield
    clear_memos()
