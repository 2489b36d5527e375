"""Every public module-level function and class of the package has a reader
outside the tests, or is a deliberate test oracle named below; and no module
imports a name it never reads.

A name counts as read when an ``ast.Name`` or ``ast.Attribute`` spells it
in ``src/`` outside its own definition, or anywhere in ``perfbench/``.  An
import counts as read when the importing module loads the name it binds; a
line marked ``# noqa: F401`` keeps an import on purpose (the names
perfbench's tracer hooks in ``ringqkd.simulator``, and ``import scipy``).
The checks parse the sources only: they import nothing and start no process.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ringqkd"

# public names kept for the tests and the documented API alone, each with why
ORACLES = {
    "binary_entropy": "the entropy of the scalar reference chain in tests/test_keyrate.py",
    "clearance_segment_km": "the segment clearance of the geometry API, checked in closed form",
    "crossing_keys": "the keys across one cut, the relay tests' message identity",
    "expected_statistics": "one-block expected counts, the click-model oracle and skl's input",
    "find_sessions": "sessions with a polished minimum zenith angle, for criterion 7",
    "monte_carlo_statistics": "the sampled click model that checks expected_statistics",
    "recover": "Bob's unmasking, the other half of the XOR round trip of criterion 1",
    "skl": "one block's finite-key ledger, the reference for the optimiser's scores",
}


def _public_definitions() -> dict:
    """name -> (module path, definition node) of the package's public names."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[node.name] = (path, node)
    return found


def _read_names(defined: dict) -> set:
    """Names spelled by a Name or Attribute in src/ or perfbench/, apart from
    a definition's references to itself."""
    read = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = set()  # a definition's references to its own name
        for node in tree.body:
            if defined.get(getattr(node, "name", None), (None,))[0] == path:
                own |= {id(n) for n in ast.walk(node) if node.name in _spelled(n)}
        for n in ast.walk(tree):
            if id(n) not in own:
                read |= _spelled(n)
    return read


def _spelled(node) -> set:
    if isinstance(node, ast.Name):
        return {node.id}
    return {node.attr} if isinstance(node, ast.Attribute) else set()


def test_every_public_name_has_a_reader_or_is_an_oracle():
    defined = _public_definitions()
    read = _read_names(defined)
    unread = sorted(name for name in defined if name not in read and name not in ORACLES)
    assert unread == [], "public names only tests read; delete them or name them as oracles"
    assert sorted(name for name in ORACLES if name in read or name not in defined) == []


def _unused_imports(path: Path) -> list:
    """``path:line name`` of each import whose bound name the module never loads."""
    source = path.read_text(encoding="utf-8")
    kept = {i for i, line in enumerate(source.splitlines(), 1) if "# noqa: F401" in line}
    tree = ast.parse(source)
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or node.lineno in kept:
            continue
        if getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in loaded:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    return unused


def test_no_module_imports_a_name_it_never_reads():
    paths = sorted(p for d in (PACKAGE, ROOT / "tests", ROOT / "perfbench") for p in d.glob("*.py"))
    assert [u for path in paths for u in _unused_imports(path)] == []
