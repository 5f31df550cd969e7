"""The parsed-file cache is off for every test under this directory,
tests/ and perfbench/ alike, in whatever order pytest runs them, unless a
test turns it on."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def no_parse_cache(tmp_path_factory):
    """Every file a test loads is parsed, in its process and in any command
    it runs: XDG_CACHE_HOME names a path under a regular file, where no
    cache directory can be made.  A test of the cache sets it to a
    directory of its own."""
    blocker = tmp_path_factory.mktemp("cache") / "a-file"
    blocker.touch()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(blocker / "cache"))
        yield
