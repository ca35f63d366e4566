"""Test-session setup shared by every test module."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True, scope="session")
def src_on_child_pythonpath():
    """Let ``python -m ballspec.cli`` subprocesses import the package from src/.

    ``pythonpath = ["src"]`` in pyproject.toml puts src/ on this process's
    sys.path only; child interpreters see just the environment.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
