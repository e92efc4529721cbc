"""The whole-program project index the program checks run on.

One :class:`ProjectIndex` is built per run from the Python files inside
some whole-program check's scope, each already parsed **once** by the
engine into a :class:`~repro.analysis.source.SourceFile`.  From those
:class:`ModuleInfo` records the index derives

* a **module symbol table** — per-module import aliases (``np`` →
  ``numpy``, ``from x import y`` → ``x.y``) so dotted call names can be
  expanded to canonical form;
* an **approximate call graph** — for every function/method, the set
  of project functions it may call.  Attribute calls are resolved via,
  in order: ``self.``/``cls.`` lookup (including one level of base
  classes), instance-attribute types recorded from ``self.x = Cls()``
  assignments, constructor-typed locals (``x = Cls(); x.m()``),
  imported module functions, and — as a last resort — a unique-name
  fallback that binds ``obj.m()`` to ``m`` when at most
  :data:`AMBIGUITY_CAP` project classes define a method of that name.

The graph is deliberately conservative-approximate: it may add edges
that cannot execute (the fallback) and misses calls through dynamic
dispatch tables, but it is deterministic, fast (one pass per file), and
precise enough to carry function-level taint and exception-flow facts
across module boundaries.
"""

import ast

from repro.analysis.source import dotted_name

#: name-based attribute-call fallback binds ``obj.m()`` to every project
#: method named ``m`` only when at most this many classes define one —
#: common names (``run``, ``get``) would otherwise wire the graph into
#: a near-clique and drown the passes in false paths
AMBIGUITY_CAP = 2


class FunctionInfo:
    """One function or method definition."""

    __slots__ = ("qname", "name", "node", "nodes", "module", "cls",
                 "calls", "callees", "local_types")

    def __init__(self, qname, name, node, module, cls=None):
        self.qname = qname
        self.name = name
        self.node = node
        self.nodes = list(ast.walk(node))    # walked once, for every check
        self.module = module
        self.cls = cls
        self.calls = []          # [(ast.Call, expanded dotted name | None)]
        self.callees = set()     # resolved project-function qnames
        self.local_types = {}    # var name -> project class qname

    @property
    def relpath(self):
        return self.module.relpath

    def __repr__(self):
        return f"<FunctionInfo {self.qname}>"


class ClassInfo:
    """One class definition."""

    __slots__ = ("qname", "name", "node", "module", "methods",
                 "base_names", "attr_types")

    def __init__(self, qname, name, node, module):
        self.qname = qname
        self.name = name
        self.node = node
        self.module = module
        self.methods = {}        # method name -> FunctionInfo
        self.base_names = [dotted_name(b) for b in node.bases]
        self.attr_types = {}     # self.<attr> -> project class qname

    def __repr__(self):
        return f"<ClassInfo {self.qname}>"


class ModuleInfo:
    """One parsed module and its local symbol table."""

    __slots__ = ("modname", "relpath", "source", "tree", "imports",
                 "functions", "classes")

    def __init__(self, modname, relpath, source):
        self.modname = modname
        self.relpath = relpath
        self.source = source
        self.tree = source.tree
        self.imports = {}        # local alias -> canonical dotted prefix
        self.functions = {}      # name -> FunctionInfo (module level)
        self.classes = {}        # name -> ClassInfo

    def expand(self, dotted):
        """Rewrite ``dotted``'s first component through the import
        table (``np.random.rand`` -> ``numpy.random.rand``)."""
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        target = self.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def __repr__(self):
        return f"<ModuleInfo {self.modname}>"


def _module_name(relpath):
    """``src/repro/sim/cpu.py`` -> ``repro.sim.cpu`` (fixture trees
    without a ``src/`` prefix map the same way)."""
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-len(".py")]
    return ".".join(parts)


class ProjectIndex:
    """Symbol tables and call graph for one tree."""

    def __init__(self):
        self.modules = {}            # modname -> ModuleInfo
        self.functions = {}          # qname -> FunctionInfo
        self.classes = {}            # qname -> ClassInfo
        self.methods_by_name = {}    # method name -> [FunctionInfo]

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, sources):
        """Index ``{relpath: SourceFile}``, every file already parsed."""
        index = cls()
        for relpath in sorted(sources):
            index._add_module(_module_name(relpath), relpath,
                              sources[relpath])
        index._resolve_calls()
        return index

    def _add_module(self, modname, relpath, source):
        mod = ModuleInfo(modname, relpath, source)
        self.modules[modname] = mod
        self._collect_imports(mod)
        for node in mod.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._add_class(mod, node)

    def _collect_imports(self, mod):
        package = mod.modname.rpartition(".")[0]
        for node in mod.source.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    mod.imports[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = mod.modname.split(".")
                    # one level strips the module name itself (its
                    # package); each further level strips a package
                    parts = parts[:len(parts) - node.level]
                    base = ".".join(parts + ([node.module]
                                             if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    mod.imports[local] = f"{base}.{alias.name}" if base \
                        else alias.name

    def _add_function(self, mod, node, cls):
        if cls is None:
            qname = f"{mod.modname}.{node.name}"
        else:
            qname = f"{cls.qname}.{node.name}"
        info = FunctionInfo(qname, node.name, node, mod, cls)
        self.functions[qname] = info
        if cls is None:
            mod.functions[node.name] = info
        else:
            cls.methods[node.name] = info
            self.methods_by_name.setdefault(node.name, []).append(info)
        return info

    def _add_class(self, mod, node):
        qname = f"{mod.modname}.{node.name}"
        cls = ClassInfo(qname, node.name, node, mod)
        self.classes[qname] = cls
        mod.classes[node.name] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, stmt, cls)

    # -- resolution helpers ------------------------------------------------

    def resolve_class(self, mod, name):
        """A class name as written in ``mod`` -> ClassInfo, or None."""
        if name is None:
            return None
        if name in mod.classes:
            return mod.classes[name]
        expanded = mod.expand(name)
        return self.classes.get(expanded)

    def _iter_class_and_bases(self, cls, _seen=None):
        seen = _seen or set()
        if cls is None or cls.qname in seen:
            return
        seen.add(cls.qname)
        yield cls
        for base_name in cls.base_names:
            base = self.resolve_class(cls.module, base_name)
            if base is not None:
                yield from self._iter_class_and_bases(base, seen)

    def lookup_method(self, cls, name):
        """``name`` on ``cls`` or its (project-resolvable) bases."""
        for c in self._iter_class_and_bases(cls):
            if name in c.methods:
                return c.methods[name]
        return None

    def _class_target(self, cls):
        """The function reached by constructing ``cls`` (its
        ``__init__`` when defined, else no edge)."""
        return self.lookup_method(cls, "__init__")

    # -- call-graph construction -------------------------------------------

    def _resolve_calls(self):
        for info in self.functions.values():
            self._infer_local_types(info)
        # instance-attribute types need local types of __init__ first
        for cls in self.classes.values():
            self._infer_attr_types(cls)
        for info in self.functions.values():
            self._resolve_function_calls(info)

    def _infer_local_types(self, info):
        for node in info.nodes:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)):
                continue
            ctor = dotted_name(node.value.func)
            cls = self.resolve_class(info.module, ctor) if ctor else None
            if cls is not None:
                info.local_types[node.targets[0].id] = cls

    def _infer_attr_types(self, cls):
        """Record ``self.<attr> = SomeClass(...)`` bindings from every
        method body (last assignment wins; approximate on purpose)."""
        for method in cls.methods.values():
            for node in method.nodes:
                if not (isinstance(node, ast.Assign)
                        and len(node.targets) == 1
                        and isinstance(node.value, ast.Call)):
                    continue
                target = dotted_name(node.targets[0])
                if not (target and target.startswith("self.")
                        and target.count(".") == 1):
                    continue
                ctor = dotted_name(node.value.func)
                bound = self.resolve_class(cls.module, ctor) if ctor \
                    else None
                if bound is not None:
                    cls.attr_types[target.split(".")[1]] = bound

    def _resolve_function_calls(self, info):
        mod = info.module
        for node in info.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            info.calls.append((node, mod.expand(dotted)))
            if dotted is None:
                continue
            for target in self._call_targets(info, dotted):
                if target is not None:
                    info.callees.add(target.qname)

    def _call_targets(self, info, dotted):
        """Project functions a dotted call name may reach."""
        parts = dotted.split(".")
        mod, cls = info.module, info.cls
        # self.m() / cls.m() / self.attr.m()
        if parts[0] in ("self", "cls") and cls is not None:
            if len(parts) == 2:
                return [self.lookup_method(cls, parts[1])]
            if len(parts) == 3:
                bound = cls.attr_types.get(parts[1])
                if bound is not None:
                    return [self.lookup_method(bound, parts[2])]
            return []
        # constructor-typed local: x = Cls(); x.m()
        if len(parts) == 2 and parts[0] in info.local_types:
            return [self.lookup_method(info.local_types[parts[0]],
                                       parts[1])]
        # plain name: module function, local class ctor, or import
        if len(parts) == 1:
            name = parts[0]
            if name in mod.functions:
                return [mod.functions[name]]
            bound = self.resolve_class(mod, name)
            if bound is not None:
                return [self._class_target(bound)]
            expanded = mod.expand(name)
            if expanded in self.functions:
                return [self.functions[expanded]]
            if expanded in self.classes:
                return [self._class_target(self.classes[expanded])]
            return []
        # dotted: expand the head through imports and try function,
        # class ctor, then Class.method
        expanded = mod.expand(dotted)
        if expanded in self.functions:
            return [self.functions[expanded]]
        if expanded in self.classes:
            return [self._class_target(self.classes[expanded])]
        owner, _, attr = expanded.rpartition(".")
        if owner in self.classes:
            return [self.lookup_method(self.classes[owner], attr)]
        # unique-name fallback for obj.m(): bind to project methods
        # named m when the name is distinctive enough
        candidates = self.methods_by_name.get(parts[-1], ())
        if 0 < len(candidates) <= AMBIGUITY_CAP:
            return list(candidates)
        return []

    # -- queries -----------------------------------------------------------

    def reachable(self, qname, barrier=None, max_depth=12):
        """Every function qname transitively callable from ``qname``.

        ``barrier`` is a predicate on :class:`FunctionInfo`; edges
        *into* functions matching it are not followed (used to stop
        taint at the observability layer).
        """
        seen = {qname}
        frontier = [qname]
        for _ in range(max_depth):
            if not frontier:
                break
            next_frontier = []
            for current in frontier:
                info = self.functions.get(current)
                if info is None:
                    continue
                for callee in info.callees:
                    if callee in seen:
                        continue
                    target = self.functions.get(callee)
                    if target is None:
                        continue
                    if barrier is not None and barrier(target):
                        continue
                    seen.add(callee)
                    next_frontier.append(callee)
            frontier = next_frontier
        return seen

    def call_path(self, start, goal, barrier=None, max_depth=12):
        """One shortest call chain ``start -> ... -> goal`` (qnames),
        or None.  Used to render taint findings with their evidence."""
        if start == goal:
            return [start]
        parents = {start: None}
        frontier = [start]
        for _ in range(max_depth):
            if not frontier:
                break
            next_frontier = []
            for current in frontier:
                info = self.functions.get(current)
                if info is None:
                    continue
                for callee in sorted(info.callees):
                    if callee in parents:
                        continue
                    target = self.functions.get(callee)
                    if target is None:
                        continue
                    if barrier is not None and barrier(target):
                        continue
                    parents[callee] = current
                    if callee == goal:
                        chain = [callee]
                        while chain[-1] is not None:
                            parent = parents[chain[-1]]
                            if parent is None:
                                break
                            chain.append(parent)
                        return list(reversed(chain))
                    next_frontier.append(callee)
            frontier = next_frontier
        return None
