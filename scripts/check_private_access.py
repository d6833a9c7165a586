#!/usr/bin/env python3
"""API-boundary lint: no private access across top-level repro packages.

The public surface of each top-level package (``repro.sim``, ``repro.core``,
``repro.obs``, ...) is its ``__all__``; underscore-prefixed names are
implementation detail that must stay free to change.  This checker walks
the AST of every module under ``src/repro`` and flags:

* ``obj._name`` attribute access where ``_name`` is a private name defined
  by a *different* top-level package and not by the accessing package
  (``self._x`` / ``cls._x`` are always fine);
* ``from ..other.module import _name`` — importing another package's
  private name directly.

Intentional exceptions — hot-path aliasing that trades encapsulation for
measured speed — are enumerated in :data:`ALLOWLIST` with the reason they
exist.  Adding an entry is an API-review decision, not a convenience.

Three more findings keep deleted code deleted:

* a private function or method that nothing under ``src/repro`` refers to
  (as a name, an attribute or an import) — private means no outside
  caller may exist, so an unreferenced one is dead;
* an :data:`ALLOWLIST` entry no scanned access uses any more;
* a slab stepper naming the object model's private layout
  (:data:`OBJECT_LAYOUT`): the steppers and the objects exchange plain data
  only, same package or not.

Run from the repo root (CI does)::

    python scripts/check_private_access.py          # exit 1 on violations
    python scripts/check_private_access.py -v       # also list the allowed
"""

from __future__ import annotations

import ast
import pathlib
import sys
from typing import Dict, List, NamedTuple, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src" / "repro"

#: (file relative to src/, private name) -> reason the exception is allowed
ALLOWLIST: Dict[Tuple[str, str], str] = {
    # Node caches direct references to its ledger's dicts: the hot-path
    # token check is a dict lookup instead of a method call (PR 2).
    ("repro/sim/node.py", "_is_first"): "hot-path ledger dict alias",
    ("repro/sim/node.py", "_refcount"): "hot-path tracker dict alias",
    # The telemetry recorder samples the engine's in-flight payload
    # counter directly every window; a public accessor would be pure
    # overhead.
    ("repro/obs/timeseries.py", "_in_flight_payload"):
        "sampled engine counter",
    ("repro/obs/timeseries.py", "_pending_restore"):
        "checkpoint restore handshake (attach absorbs pending state)",
    ("repro/obs/events.py", "_pending_restore"):
        "checkpoint restore handshake (attach absorbs pending state)",
    # The ambient capture hooks engine construction; the hook list is
    # deliberately module-private.
    ("repro/obs/capture.py", "_construction_hooks"):
        "engine construction hook point",
    # The failure manager implements the paper's protocol *inside* the
    # nodes: it drains control queues that are private to Node on purpose
    # (no other caller may touch them).
    ("repro/failures/manager.py", "_queue_token"):
        "failure protocol enqueues invalidation tokens",
}


#: Private attributes of ``Node``, ``TokenLedger`` and
#: ``ActiveBucketTracker`` that the slab steppers used to read and refill in
#: place (a node's send queues are plain lists, ``Node.link_queues``).  The steppers now pack from, and export, the checkpoint's
#: plain-data encoding (DESIGN.md §11), so on anything but ``self`` these
#: names mean an object walker is growing back.
OBJECT_LAYOUT = frozenset({
    "_spent_map", "_refcount_map", "_is_first_map",
    "_token_cache", "_spent", "_refcount",
})

#: the files (relative to src/) held to :data:`OBJECT_LAYOUT`
SLAB_STEPPERS = frozenset({
    "repro/sim/backends/vector.py",
    "repro/sim/backends/token_slab.py",
})


class Violation(NamedTuple):
    file: str
    line: int
    name: str
    kind: str
    detail: str


class Report(NamedTuple):
    violations: List[Violation]  #: cross-package private accesses
    allowed: List[Tuple[Violation, str]]  #: ... excused by the allowlist
    dead: List[Tuple[str, int, str]]  #: (file, line, unreferenced private def)
    stale: List[Tuple[str, str]]  #: allowlist keys nothing uses


def _top_package(path: pathlib.Path, root: pathlib.Path) -> str:
    """repro/sim/engine.py -> 'sim'; repro/api.py -> 'repro'."""
    rel = path.relative_to(root)
    return rel.parts[0] if len(rel.parts) > 1 else "repro"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _collect_definitions(tree: ast.AST) -> Set[str]:
    """Every private name a module defines or assigns (incl. self._x)."""
    defined: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if _is_private(node.name):
                defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name) and _is_private(leaf.id):
                        defined.add(leaf.id)
                    elif (isinstance(leaf, ast.Attribute)
                          and _is_private(leaf.attr)):
                        defined.add(leaf.attr)
            # __slots__ entries are definitions too
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Name)
                            and target.id == "__slots__"):
                        try:
                            slots = ast.literal_eval(node.value)
                        except ValueError:
                            continue
                        for slot in slots if isinstance(
                                slots, (tuple, list)) else ():
                            if isinstance(slot, str) and _is_private(slot):
                                defined.add(slot)
    return defined


def _private_functions(tree: ast.AST) -> List[Tuple[int, str]]:
    """(line, name) of every private function or method a module defines."""
    return [
        (node.lineno, node.name) for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _is_private(node.name)
    ]


def _referenced_names(tree: ast.AST) -> Set[str]:
    """Every identifier a module mentions as a Name, Attribute or import."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.name.rpartition(".")[2])
    return names


def _scan_file(rel: str, package: str, tree: ast.AST, own: Set[str],
               foreign: Dict[str, Set[str]]) -> List[Violation]:
    """Flag cross-package private attribute access and imports in the
    module ``rel`` (path relative to ``src/``) of top-level ``package``."""
    out: List[Violation] = []

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            receiver = node.value
            if isinstance(receiver, ast.Name) and receiver.id in (
                    "self", "cls"):
                continue
            if rel in SLAB_STEPPERS and node.attr in OBJECT_LAYOUT:
                out.append(Violation(rel, node.lineno, node.attr,
                                     "attribute",
                                     "object-model layout in a slab stepper"))
                continue
            if node.attr in own:
                continue  # the package owns (also) this name
            owners = sorted(pkg for pkg, names in foreign.items()
                            if pkg != package and node.attr in names)
            if owners:
                out.append(Violation(rel, node.lineno, node.attr,
                                     "attribute",
                                     f"defined in {', '.join(owners)}"))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # relative: level>=2 or explicit package prefix
                parts = module.split(".") if module else []
                if node.level == 1 and len(parts) <= 1:
                    continue  # same-package sibling import
                target_pkg = parts[0] if node.level > 1 and parts else None
            else:
                parts = module.split(".")
                if parts[0] != "repro" or len(parts) < 2:
                    continue
                target_pkg = parts[1]
            if target_pkg is None or target_pkg == package:
                continue
            for alias in node.names:
                if _is_private(alias.name):
                    out.append(Violation(rel, node.lineno, alias.name,
                                         "import",
                                         f"from package {target_pkg}"))
    return out


def check(root: pathlib.Path = SRC_ROOT,
          allowlist: Dict[Tuple[str, str], str] = ALLOWLIST) -> Report:
    """Run every check over the package tree rooted at ``root``."""
    modules: List[Tuple[str, str, ast.AST]] = []  # (rel path, package, tree)
    per_package: Dict[str, Set[str]] = {}
    referenced: Set[str] = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        package = _top_package(path, root)
        modules.append((str(path.relative_to(root.parent)), package, tree))
        per_package.setdefault(package, set()).update(
            _collect_definitions(tree))
        referenced |= _referenced_names(tree)

    report = Report([], [], [], [])
    used: Set[Tuple[str, str]] = set()
    for rel, package, tree in modules:
        for v in _scan_file(rel, package, tree, per_package[package],
                            per_package):
            reason = allowlist.get((v.file, v.name))
            if reason is None:
                report.violations.append(v)
            else:
                used.add((v.file, v.name))
                report.allowed.append((v, reason))
        report.dead.extend(
            (rel, line, name)
            for line, name in _private_functions(tree)
            if name not in referenced
        )
    report.stale.extend(sorted(set(allowlist) - used))
    return report


def main(argv: List[str]) -> int:
    verbose = "-v" in argv
    report = check()
    if verbose and report.allowed:
        print(f"{len(report.allowed)} allowlisted private accesses:")
        for v, reason in report.allowed:
            print(f"  {v.file}:{v.line}  {v.name}  ({reason})")
    if report.violations:
        print(f"{len(report.violations)} cross-package private accesses "
              f"(add a public accessor, or allowlist with a reason):")
        for v in report.violations:
            print(f"  {v.file}:{v.line}  {v.kind} {v.name}  ({v.detail})")
    if report.dead:
        print(f"{len(report.dead)} private functions nothing under "
              f"src/repro refers to (delete them):")
        for file, line, name in report.dead:
            print(f"  {file}:{line}  {name}")
    if report.stale:
        print(f"{len(report.stale)} ALLOWLIST entries no access uses "
              f"(remove them):")
        for file, name in report.stale:
            print(f"  {file}  {name}")
    if report.violations or report.dead or report.stale:
        return 1
    if verbose:
        print("boundary check clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
