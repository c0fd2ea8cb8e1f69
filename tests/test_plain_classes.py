"""condclt's records are NamedTuples and its one error is an exception:
src/condclt hand-writes no other class, except those kept below with a reason.
A value that no caller mutates needs no constructor, attributes or checks of
its own."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "condclt"

# (file, class) -> why the class stays hand-written.
KEPT = {
    ("mc_engine.py", "VerificationReport"):
        "callers mutate it: the CLI and bench/workloads.py set report.passed and append "
        "to report.normality after construction",
    ("mc_engine.py", "MomentAccumulator"):
        "bench/run.py reads acc.comoment, and the bench tracer counts "
        "MomentAccumulator.update calls (ROADMAP item 10)",
}


def _base(node) -> str:
    return ast.unparse(node).rsplit(".", 1)[-1]     # typing.NamedTuple -> NamedTuple


def hand_written_classes(src: Path = SRC) -> list[tuple[str, str]]:
    """(file, class) for each class under src, nested ones too, that is neither
    a NamedTuple nor an exception."""
    classes = [(path.name, node) for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)]
    exceptions = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}
    for _ in classes:       # a subclass may come before its base
        exceptions |= {node.name for _, node in classes
                       if any(_base(b) in exceptions for b in node.bases)}
    return [(name, node.name) for name, node in classes
            if not any(_base(b) in exceptions | {"NamedTuple"} for b in node.bases)]


def test_only_kept_classes_are_hand_written():
    found = hand_written_classes()
    assert not set(found) - KEPT.keys(), f"hand-written classes: {set(found) - KEPT.keys()}"
    assert not KEPT.keys() - set(found), f"no longer hand-written: {KEPT.keys() - set(found)}"


def test_guard_sees_each_form_of_class(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Late(Early):\n    pass\n"
        "class Record(NamedTuple):\n    x: int\n"
        "class Qualified(typing.NamedTuple):\n    x: int\n"
        "class Plain:\n    class Inner(object):\n        pass\n")
    (tmp_path / "b.py").write_text("class Early(ValueError):\n    pass\n")
    assert hand_written_classes(tmp_path) == [("a.py", "Plain"), ("a.py", "Inner")]
