"""Every public top-level function and class of src/qdist has a reader in
the program: the library itself, scripts/ or perfbench/. A name that only
tests read belongs in tests/ (tests/reference.py holds the tests' own
references), so a helper that loses its last caller fails here.

Readers are found in the syntax tree, not by word matching: the CLI's
`args.interval`, the route label "inertia" in sweeps.eig_inertia_agreement
and perfbench's own `oracles.delete_vertex` carry the words of library
names without reading them, and a plain text search would count them.
A reader is
  - the bare name in its own module, outside its own definition;
  - `from <pkg>.<module> import name` or `<module>.name` (also
    `qdist.<module>.name`) in src/qdist, scripts/ or perfbench/;
  - a string constant in perfbench/, whose tracer wraps names by string;
  - a value of verify.FAMILY_CHECKERS, which verify looks up in globals().
A public method of a public library class has a reader when its name is
read as an attribute (`x.name`) anywhere in src/qdist, scripts/ or
perfbench/; a method that only the tests call belongs in tests/ too.
"""

import ast
from pathlib import Path

from qdist import verify

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "qdist"
PROGRAM = [LIBRARY, ROOT / "scripts", ROOT / "perfbench"]

# Readers still to come: ROADMAP item 2 runs these two in `verify`.
ALLOWED = {
    "sweeps.eig_inertia_agreement": "ROADMAP item 2 runs it in verify",
    "sweeps.intro_bound_failures": "ROADMAP item 2 runs it in verify",
}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _public_definitions(tree: ast.Module) -> list[ast.FunctionDef | ast.ClassDef]:
    return [
        node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _own_module_reads(tree: ast.Module) -> set[str]:
    """Bare names read in a module, each top-level definition's reads of its own name left out."""
    names = set()
    for top in tree.body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        names |= {n.id for n in ast.walk(top) if isinstance(n, ast.Name) and n.id != own}
    return names


def _outside_reads(path: Path) -> set[str]:
    """(module, name) pairs that a file imports or reads as an attribute,
    plus ("", text) for each of its string constants."""
    found = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and node.module:
            found |= {(node.module.rpartition(".")[2], alias.name) for alias in node.names}
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, ast.Name):
                found.add((owner.id, node.attr))
            elif isinstance(owner, ast.Attribute):
                found.add((owner.attr, node.attr))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(("", node.value))
    return found


def unread_names() -> list[str]:
    outside, strings = set(), set()
    for directory in PROGRAM:
        for path in sorted(directory.glob("*.py")):
            reads = _outside_reads(path)
            outside |= {r for r in reads if r[0]}
            if directory.name == "perfbench":
                strings |= {text for owner, text in reads if not owner}
    strings |= set(verify.FAMILY_CHECKERS.values())
    unread = []
    for path in sorted(LIBRARY.glob("*.py")):
        tree, module = _tree(path), path.stem
        inside = _own_module_reads(tree)
        for node in _public_definitions(tree):
            name = node.name
            if name not in inside and (module, name) not in outside and name not in strings:
                unread.append(f"{module}.{name}")
    return unread


def test_every_public_library_name_has_a_reader():
    assert sorted(unread_names()) == sorted(ALLOWED)


def unread_methods() -> list[str]:
    read = set()
    for directory in PROGRAM:
        for path in sorted(directory.glob("*.py")):
            read |= {node.attr for node in ast.walk(_tree(path)) if isinstance(node, ast.Attribute)}
    unread = []
    for path in sorted(LIBRARY.glob("*.py")):
        for cls in _public_definitions(_tree(path)):
            if isinstance(cls, ast.ClassDef):
                methods = [f.name for f in cls.body if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")]
                unread += [f"{path.stem}.{cls.name}.{name}" for name in methods if name not in read]
    return unread


def test_every_public_library_method_has_a_reader():
    assert unread_methods() == []
