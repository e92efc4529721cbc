"""Source files and AST name helpers for the analysis engine.

The engine reads every discovered file once into a :class:`SourceFile`
and parses a Python file at most once, however many checks consume it.
"""

import ast
from pathlib import Path


class SourceFile:
    """One file's root-relative path, text, split lines, and lazily
    parsed AST.

    ``tree`` raises ``SyntaxError`` for a broken file, exactly like
    calling ``ast.parse`` directly; the engine turns that into one
    ``parse-error`` finding and hands the file to no check.
    """

    def __init__(self, path, relpath):
        self.path = Path(path)
        self.relpath = relpath       # engine-root-relative, POSIX separators
        self.text = self.path.read_text(encoding="utf-8")
        self.lines = self.text.splitlines()
        self._tree = None
        self._nodes = None

    @property
    def tree(self):
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=str(self.path))
        return self._tree

    @property
    def nodes(self):
        """Every node of ``tree`` in ``ast.walk`` order, walked once for
        all the checks that scan the whole file."""
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes


def dotted_name(node):
    """Render a pure ``Name``/``Attribute`` chain as ``"a.b.c"``.

    Returns ``None`` for anything else (subscripts, calls, literals) —
    checks treat those as dynamic and skip them.
    """
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_callee(call):
    """The last component of a call target (method or function name)."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None
