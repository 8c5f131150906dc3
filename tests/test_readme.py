"""README's Python examples run, and every ``teicp`` name it mentions exists."""

import importlib
import re
from pathlib import Path

import pytest

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)


def _resolve(dotted: str):
    """The object ``dotted`` names, importing submodules as needed."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for k, part in enumerate(parts[1:], start=2):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            obj = importlib.import_module(".".join(parts[:k]))
    return obj


def _mentioned_names() -> list[str]:
    names = set(re.findall(r"\b(teicp(?:\.[A-Za-z_]\w*)+)", README))
    for imported in re.findall(r"^\s*from teicp import (.+)$", README, flags=re.M):
        names.update(f"teicp.{name.strip()}" for name in imported.split(","))
    return sorted(names)


@pytest.mark.parametrize("block", PYTHON_BLOCKS)
def test_readme_python_block_runs(block):
    exec(compile(block, "README.md", "exec"), {})


def test_readme_has_a_python_block_and_names():
    assert PYTHON_BLOCKS and "teicp.spg1" in _mentioned_names()


@pytest.mark.parametrize("name", _mentioned_names())
def test_readme_name_resolves(name):
    _resolve(name)
