"""Every public function and class of condclt is reached from the library
itself or from the benchmark in bench/, not only from the tests: a name that
only tests call is either kept on purpose, with a reason below, or deleted."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "condclt"

# Public names that only tests reach, kept on purpose.
KEPT = {
    "allocation_count_law": "exact occupancy-vector law of the desk-scale tests and criterion 6",
    "gnp_degree_cov": "per-entry reference that theory_cov_matrix is tested against",
    "load_count_matrix": "reads the --dump count-matrix format back",
    "parse_report": "reads the JSON report format back",
    "weiss_variance": "Weiss's empty-box variance, the reference of the empty-box tests",
}


def public_defs() -> set[str]:
    """Names of the public top-level functions and classes of condclt."""
    return {node.name for path in SRC.glob("*.py")
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def referenced_names() -> set[str]:
    """Every Name and Attribute in condclt and bench/, except a definition's
    references to its own name inside its body.  Strings (docstrings, the
    tracer's site keys) are not references."""
    out = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "bench").glob("*.py")]:
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    out.add(name)
    return out


def test_every_public_name_is_reached_outside_the_tests():
    unreached = public_defs() - referenced_names()
    assert not unreached - KEPT.keys(), f"reached only from tests: {unreached - KEPT.keys()}"
    assert not KEPT.keys() - unreached, f"no longer test-only: {KEPT.keys() - unreached}"
