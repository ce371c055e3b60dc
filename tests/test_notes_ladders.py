"""The parent-versus-change ladders in notes/ run against this checkout.

Each ``notes/bench_*.py`` builds its cases from ``privsig`` and from
perfbench's input generators; a renamed function or a changed signature
would otherwise show only when someone next runs the ladder.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LADDERS = sorted((ROOT / "notes").glob("bench_*.py"))


@pytest.fixture
def ladder_path(monkeypatch):
    """The ladders import their harness from notes/ and their inputs from
    perfbench/, as the ladder's worker does."""
    for sub in ("perfbench", "notes"):
        monkeypatch.syspath_prepend(str(ROOT / sub))


def test_every_ladder_is_found():
    assert len(LADDERS) >= 7


@pytest.mark.parametrize("script", LADDERS, ids=lambda p: p.name)
def test_ladder_builds_its_cases(script, ladder_path):
    spec = importlib.util.spec_from_file_location(f"_ladder_{script.stem}", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    cases = module.cases()
    assert cases
    keys = [module.ladder.key(op, path, size) for op, path, size, _ in cases]
    assert len(set(keys)) == len(keys)
    # Two ladders have no targets and hand the harness an empty tuple.
    for name, op, path, size, _ in getattr(module, "TARGETS", ()):
        assert module.ladder.key(op, path, size) in keys, name
    cases[0][3]()
