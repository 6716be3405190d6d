"""Suite-wide guard: tests write only under their own tmp_path."""

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
CACHES = {"__pycache__", ".pytest_cache"}


def _root_entries() -> set[str]:
    return {p.name for p in REPO_ROOT.iterdir()} - CACHES


@pytest.fixture(scope="session", autouse=True)
def no_files_left_in_repo_root():
    before = _root_entries()
    yield
    leaked = sorted(_root_entries() - before)
    if leaked:
        pytest.fail(f"tests left new entries in the repository root: {leaked}")
