"""The evaluation pipeline runs on plain ndarrays: no module but ``jets`` uses jets."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "closedstring"


def _jet_uses(tree):
    """(line, what) for every import of ``jets`` and every use of the name ``Jet``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(node.lineno, f"import {a.name}") for a in node.names
                    if a.name.split(".")[-1] == "jets"]
        elif isinstance(node, ast.ImportFrom):
            names = [a.name for a in node.names]
            if (node.module or "").split(".")[-1] == "jets" or "jets" in names:
                out.append((node.lineno, f"from {node.module or '.'} import {', '.join(names)}"))
        elif isinstance(node, ast.Name) and node.id == "Jet":
            out.append((node.lineno, "name Jet"))
        elif isinstance(node, ast.Attribute) and node.attr == "Jet":
            out.append((node.lineno, "attribute .Jet"))
    return out


def test_pipeline_does_not_use_jets():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "jets.py")
    assert {"numerics.py", "phase_space.py", "ddf.py", "pohlmeyer.py", "poisson.py"} <= \
        {p.name for p in modules}
    uses = [f"{p.name} line {n}: {what}" for p in modules
            for n, what in _jet_uses(ast.parse(p.read_text(), filename=str(p)))]
    assert not uses, "; ".join(uses)
