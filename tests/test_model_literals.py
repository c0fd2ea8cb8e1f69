"""What condclt knows of each sampling model lives in one record of
``mc_engine.EXPERIMENT_MODELS``: src/condclt compares no model name with a
literal outside that table, except at the sites kept below with a reason.  A
new model then needs one record, not one more branch at each site."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "condclt"
MODELS = {"alloc", "gnp", "gnm", "spacings"}

# (file, function, comparison) -> why the comparison stays outside the table.
KEPT = {
    ("mc_engine.py", "check_params", "model == 'gnm'"):
        "m <= C(n,2) bounds the edge count of G(n,m) only; alloc's m is a ball count",
    ("mc_engine.py", "check_params", "model in ('gnm', 'gnp')"):
        "n <= MAX_GRAPH_N keeps the edge draw's C(n,2) and (2n-1)^2 in int64; "
        "alloc and spacings have no edges",
}


def _literals(node) -> set[str]:
    """The model names a comparison operand is or holds as string literals."""
    elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
    return {e.value for e in elts if isinstance(e, ast.Constant) and e.value in MODELS}


def _is_table(top) -> bool:
    return isinstance(top, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "EXPERIMENT_MODELS" for t in top.targets)


def model_comparisons(src: Path = SRC) -> list[tuple[str, str, str]]:
    """(file, top-level definition, comparison) for every comparison of
    anything with a model-name literal, outside the EXPERIMENT_MODELS table."""
    found = []
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if _is_table(top):
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Compare) and any(
                        _literals(operand) for operand in [node.left, *node.comparators]):
                    found.append((path.name, getattr(top, "name", "<module>"),
                                  ast.unparse(node)))
    return found


def test_model_facts_stay_in_the_table():
    found = model_comparisons()
    assert not set(found) - KEPT.keys(), f"model-name comparisons: {set(found) - KEPT.keys()}"
    assert not KEPT.keys() - set(found), f"no longer compared: {KEPT.keys() - set(found)}"
    assert len(found) == len(KEPT), f"a kept comparison is repeated: {found}"


def test_guard_sees_each_form_of_comparison(tmp_path):
    (tmp_path / "mod.py").write_text(
        "EXPERIMENT_MODELS = {'alloc': 1 if x == 'gnp' else 2}\n"
        "def f(model):\n"
        "    return model != 'spacings' or model in ('alloc', 'x') or 'gnm' == model\n"
        "X = 'gnp' in ['poisson']\n")
    assert model_comparisons(tmp_path) == [
        ("mod.py", "f", "model != 'spacings'"), ("mod.py", "f", "model in ('alloc', 'x')"),
        ("mod.py", "f", "'gnm' == model"), ("mod.py", "<module>", "'gnp' in ['poisson']")]
