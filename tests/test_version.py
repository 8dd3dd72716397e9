"""The package version is written in three places; they must agree."""

import re
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parent.parent


def _field(path: Path, pattern: str) -> str:
    match = re.search(pattern, path.read_text(), re.MULTILINE)
    assert match, f"no version field in {path}"
    return match.group(1)


def test_version_agrees_across_package_pyproject_and_pkg_info():
    pyproject = _field(ROOT / "pyproject.toml", r'^version = "([^"]+)"$')
    pkg_info = _field(ROOT / "src" / "repro.egg-info" / "PKG-INFO", r"^Version: (\S+)$")
    assert repro.__version__ == pyproject == pkg_info
