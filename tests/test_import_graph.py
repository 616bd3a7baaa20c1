"""Import hygiene: what the package imports, and that it uses it.

``scipy.signal`` drags in ``scipy.stats`` and most of scipy, which was
over half of every fresh interpreter's start-up.  The package uses only
``scipy.fft`` and ``scipy.ndimage``; the cold-start test keeps it that
way.  The unused-import test keeps every module's imports live.
"""

import ast
import pathlib
import subprocess
import sys

import repro
from repro.campaign.fabric.chaos import _subprocess_env

_PROBE = """
import sys
import repro
import repro.campaign.runner
import repro.cli
print(" ".join(m for m in ("scipy.signal", "scipy.stats") if m in sys.modules))
"""

SRC = pathlib.Path(repro.__file__).resolve().parent


def test_package_import_leaves_out_scipy_signal_and_stats():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        check=True,
    )
    assert result.stdout.split() == []


def _annotation_names(tree):
    """Names used inside string annotations (``x: "Sequence[int]"``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [
                arg.annotation
                for arg in (args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg])
                if arg is not None and arg.annotation is not None
            ]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                parsed = ast.parse(sub.value, mode="eval")
                yield from (n.id for n in ast.walk(parsed)
                            if isinstance(n, ast.Name))


def _unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_annotation_names(tree))
    return [f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports_outside_package_inits():
    """Every name a module imports is referenced in its code or in a
    string annotation; ``__init__`` modules re-export, so are exempt."""
    unused = [
        finding
        for path in sorted(SRC.rglob("*.py")) if path.name != "__init__.py"
        for finding in _unused_imports(path)
    ]
    assert unused == []
