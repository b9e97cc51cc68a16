"""tools/compare_iterates.py on two copies of the working tree's package."""

import importlib.util
import shutil
from pathlib import Path

import pytest

import radialopf

ROOT = Path(__file__).resolve().parent.parent
FEEDERS = ("four-bus-abc", "mixed-7-unsorted")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "compare_iterates", ROOT / "tools" / "compare_iterates.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copies(tool, tmp_path, tag):
    """Two packages loaded from copies of radialopf's sources, without git."""
    src = Path(radialopf.__file__).parent
    pkgs = []
    for side in ("base", "change"):
        name = f"radialopf_{tag}_{side}"
        shutil.copytree(src, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
        pkgs.append(tool.load_package(tmp_path / name, name))
    return pkgs


@pytest.fixture(scope="module")
def documents(tool):
    docs = [doc for doc in tool.feeder_documents(radialopf) if doc[0] in FEEDERS]
    assert [label for label, _ in docs] == list(FEEDERS)
    return docs


def test_copies_of_one_package_compare_bitwise(tool, documents, tmp_path):
    base, change = copies(tool, tmp_path, "same")
    assert base.run is not change.run
    lines, ok = tool.compare(base, change, documents, 1e-12)
    assert ok
    assert [line.rsplit(": ", 1)[1] for line in lines] == ["bitwise; maps equal"] * len(FEEDERS)


def test_a_difference_above_the_tolerance_fails(tool, documents, tmp_path, monkeypatch):
    base, change = copies(tool, tmp_path, "shifted")
    objective = change.engine.compute_objective
    monkeypatch.setattr(change.engine, "compute_objective", lambda s: objective(s) + 1e-9)
    lines, ok = tool.compare(base, change, documents, 1e-12)
    assert not ok
    assert all("history 1.000e-09, blocks 0.000e+00" in line for line in lines)
    lines, ok = tool.compare(base, change, documents, 1e-6)
    assert ok


@pytest.mark.parametrize("edit, named", [("empty", "messages"), ("delete", "messages n/a")])
def test_a_changed_map_is_named_but_passes(tool, documents, tmp_path, monkeypatch, edit, named):
    # the messages do not enter the iterates, so only the maps differ
    base, change = copies(tool, tmp_path, f"maps_{edit}")
    init = change.engine.State.__init__

    def edited(self, *args):
        init(self, *args)
        if edit == "empty":
            self.messages = frozenset()
        else:
            del self.messages

    monkeypatch.setattr(change.engine.State, "__init__", edited)
    lines, ok = tool.compare(base, change, documents[:1], 1e-12)
    assert ok
    assert lines[0].endswith(f": bitwise; maps differ: {named}")


def test_changed_rows_show_their_largest_difference(tool, documents, tmp_path, monkeypatch):
    # a_mat is a list of per-bus arrays; the operators are built before the
    # edit, so the iterates stay bitwise
    base, change = copies(tool, tmp_path, "rows")
    init = change.engine.State.__init__

    def edited(self, *args):
        init(self, *args)
        rows = self.ysolver.a_mat
        rows[-1] = rows[-1].copy()
        rows[-1][0, 0] += 0.25

    monkeypatch.setattr(change.engine.State, "__init__", edited)
    lines, ok = tool.compare(base, change, documents[:1], 1e-12)
    assert ok
    assert lines[0].endswith(": bitwise; maps differ: ysolver.a_mat (largest difference 2.500e-01)")
