import builtins
import errno
import os

import pytest

from twins_lab import cli


@pytest.fixture(scope="session", autouse=True)
def allocator_policy():
    """Run the suite under the allocator setting `twins-lab` itself uses,
    so a step's freed graph memory is reused rather than faulted in."""
    cli.keep_freed_memory()


class _HalfWrite:
    """A file whose first write stores half its data, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


@pytest.fixture
def disk_full(monkeypatch):
    """`disk_full(name)` makes every file whose name starts with `name`,
    opened for writing, fail partway through its first write."""

    def fail_writes_to(name):
        real_open = builtins.open

        def opener(file, mode="r", *args, **kwargs):
            fh = real_open(file, mode, *args, **kwargs)
            if "w" in mode and os.path.basename(str(file)).startswith(name):
                return _HalfWrite(fh)
            return fh

        monkeypatch.setattr(builtins, "open", opener)

    return fail_writes_to
