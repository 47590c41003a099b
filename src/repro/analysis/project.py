"""Project-wide symbol table: every module, class, function, and import.

One AST at a time cannot see transitive violations — a planner calling
a helper that calls ``time.time()`` looks pure from inside the planner's
file.  :class:`Project` is the first layer of the whole-program engine:
one pass over every analyzed :class:`~repro.analysis.engine.FileContext`
builds a symbol table that maps dotted names to their defining nodes, so
:mod:`repro.analysis.callgraph` can resolve call sites across files and
:mod:`repro.analysis.effects` can propagate effect facts through them.

Resolution is deliberately static and conservative: module-level
functions, classes and their methods (including methods inherited from
project-local base classes), ``import`` / ``from … import`` aliases
(absolute and relative, with bounded re-export chasing), ``self.x``
attribute types inferred from ``self.x = ClassName(...)`` assignments,
and local variables bound by ``v = ClassName(...)``.  Anything dynamic —
``getattr``, callables passed as values, decorators that swap bodies —
stays unresolved and is recorded as ⊤ by the call graph.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.engine import FileContext, repro_module

#: How many re-export hops ``resolve_qualified`` will chase before
#: giving up (``repro/__init__`` re-exporting ``repro.messaging`` names
#: that re-export from ``repro.messaging.channel`` is two hops).
_REEXPORT_DEPTH = 4

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, None for anything else."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is not None:
            return f"{base}.{node.attr}"
    return None


def receiver_root(node: ast.AST) -> Optional[str]:
    """The root Name of an attribute/subscript chain (``self`` in
    ``self.uqs[qid].rows``), or None when the chain starts elsewhere."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def module_name(path: str) -> str:
    """Dotted module name for a display path.

    Files inside a ``repro`` package directory get their real dotted
    name (``src/repro/warehouse/planner.py`` → ``repro.warehouse.
    planner``); anything else gets a stable path-derived name so test
    and tool files can still participate in resolution.
    """
    parts = repro_module(path)
    if parts is not None:
        return ".".join(parts)
    trimmed = path[: -len(".py")] if path.endswith(".py") else path
    return trimmed.strip("/").replace("/", ".")


@dataclass
class FunctionInfo:
    """One module-level function or class method."""

    qualname: str
    name: str
    module: str
    path: str
    node: FunctionNode
    class_name: Optional[str] = None

    @property
    def display(self) -> str:
        """``Class.method`` or plain ``function`` for messages."""
        if self.class_name:
            return f"{self.class_name}.{self.name}"
        return self.name


@dataclass
class ClassInfo:
    """One module-level class and its directly defined methods."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr>`` → class qualname, inferred from
    #: ``self.attr = ClassName(...)`` assignments in any method.
    attr_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One analyzed file: its symbols and import aliases."""

    name: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


Symbol = Union[FunctionInfo, ClassInfo, ModuleInfo]


class Project:
    """Symbol table spanning every analyzed file in one invocation."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    @classmethod
    def build(cls, contexts: Sequence[FileContext]) -> "Project":
        project = cls()
        for context in contexts:
            project._add_module(context)
        for klass in project.classes.values():
            project._infer_attr_types(klass)
        return project

    # ----------------------------------------------------------------- #
    # Lookups
    # ----------------------------------------------------------------- #

    def class_of(self, function: FunctionInfo) -> Optional[ClassInfo]:
        if function.class_name is None:
            return None
        return self.classes.get(f"{function.module}.{function.class_name}")

    def method_on(
        self, klass: ClassInfo, name: str, _seen: Optional[Set[str]] = None
    ) -> Optional[FunctionInfo]:
        """Resolve ``name`` on ``klass`` or its project-local bases."""
        seen = _seen if _seen is not None else set()
        if klass.qualname in seen:
            return None
        seen.add(klass.qualname)
        method = klass.methods.get(name)
        if method is not None:
            return method
        module = self.modules.get(klass.module)
        for base in klass.bases:
            resolved = self.resolve_name(module, base) if module else None
            if isinstance(resolved, ClassInfo):
                inherited = self.method_on(resolved, name, seen)
                if inherited is not None:
                    return inherited
        return None

    def resolve_name(
        self, module: Optional[ModuleInfo], name: str
    ) -> Optional[Symbol]:
        """Resolve a dotted name as seen from inside ``module``."""
        if module is None:
            return None
        parts = name.split(".")
        head = parts[0]
        if len(parts) == 1:
            if head in module.functions:
                return module.functions[head]
            if head in module.classes:
                return module.classes[head]
        if len(parts) == 2 and head in module.classes:
            return self.method_on(module.classes[head], parts[1])
        if head in module.imports:
            target = ".".join([module.imports[head], *parts[1:]])
            return self.resolve_qualified(target)
        return None

    def resolve_qualified(
        self, full: str, _depth: int = 0
    ) -> Optional[Symbol]:
        """Resolve a fully-qualified dotted name, chasing re-exports."""
        if _depth > _REEXPORT_DEPTH:
            return None
        parts = full.split(".")
        for cut in range(len(parts), 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is None:
                continue
            rest = parts[cut:]
            if not rest:
                return module
            if len(rest) == 1:
                leaf = rest[0]
                if leaf in module.functions:
                    return module.functions[leaf]
                if leaf in module.classes:
                    return module.classes[leaf]
                if leaf in module.imports:
                    return self.resolve_qualified(
                        module.imports[leaf], _depth + 1
                    )
                return None
            if len(rest) == 2:
                klass = module.classes.get(rest[0])
                if klass is not None:
                    return self.method_on(klass, rest[1])
                if rest[0] in module.imports:
                    return self.resolve_qualified(
                        ".".join([module.imports[rest[0]], rest[1]]),
                        _depth + 1,
                    )
            return None
        return None

    # ----------------------------------------------------------------- #
    # Building
    # ----------------------------------------------------------------- #

    def _add_module(self, context: FileContext) -> None:
        name = module_name(context.path)
        if name in self.modules:
            # Two files mapping to one dotted name (a fixture shadowing
            # a real module): keep both, the later one under a unique
            # path-derived key so its symbols still resolve internally.
            name = context.path[: -len(".py")].strip("/").replace("/", ".")
        info = ModuleInfo(name=name, path=context.path)
        self.modules[name] = info
        self._collect_imports(info, context.tree)
        for stmt in context.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                self._add_class(info, stmt)

    def _collect_imports(self, info: ModuleInfo, tree: ast.Module) -> None:
        # Function-level imports participate too (several modules import
        # lazily to break cycles); folding them into the module map is a
        # harmless over-approximation for a resolver this conservative.
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        info.imports[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        info.imports.setdefault(root, root)
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(info, node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    info.imports[local] = f"{base}.{alias.name}"

    @staticmethod
    def _import_base(
        info: ModuleInfo, node: ast.ImportFrom
    ) -> Optional[str]:
        if node.level == 0:
            return node.module
        package = info.name.split(".")[: -node.level]
        if not package:
            return node.module
        if node.module:
            return ".".join([*package, node.module])
        return ".".join(package)

    def _add_function(
        self,
        info: ModuleInfo,
        node: FunctionNode,
        class_name: Optional[str],
    ) -> FunctionInfo:
        scope = f"{info.name}.{class_name}" if class_name else info.name
        function = FunctionInfo(
            qualname=f"{scope}.{node.name}",
            name=node.name,
            module=info.name,
            path=info.path,
            node=node,
            class_name=class_name,
        )
        if class_name is None:
            info.functions[node.name] = function
        self.functions[function.qualname] = function
        return function

    def _add_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        klass = ClassInfo(
            qualname=f"{info.name}.{node.name}",
            name=node.name,
            module=info.name,
            path=info.path,
            node=node,
            bases=[
                base
                for base in (dotted_name(b) for b in node.bases)
                if base is not None
            ],
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                klass.methods[stmt.name] = self._add_function(
                    info, stmt, class_name=node.name
                )
        info.classes[node.name] = klass
        self.classes[klass.qualname] = klass

    def constructions(
        self, module: Optional[ModuleInfo], node: FunctionNode
    ) -> Iterator[Tuple[ast.expr, str]]:
        """``(target, class qualname)`` for every ``target =
        ClassName(...)`` assignment inside ``node``."""
        for stmt in ast.walk(node):
            if not isinstance(stmt, ast.Assign) or not isinstance(
                stmt.value, ast.Call
            ):
                continue
            callee = dotted_name(stmt.value.func)
            resolved = self.resolve_name(module, callee) if callee else None
            if isinstance(resolved, ClassInfo):
                for target in stmt.targets:
                    yield target, resolved.qualname

    def _infer_attr_types(self, klass: ClassInfo) -> None:
        module = self.modules.get(klass.module)
        for method in klass.methods.values():
            for target, qualname in self.constructions(module, method.node):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    klass.attr_types[target.attr] = qualname


def local_instance_types(
    project: Project, module: Optional[ModuleInfo], node: FunctionNode
) -> Dict[str, str]:
    """``v`` → class qualname for ``v = ClassName(...)`` bindings."""
    return {
        target.id: qualname
        for target, qualname in project.constructions(module, node)
        if isinstance(target, ast.Name)
    }
