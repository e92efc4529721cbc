"""Digest rule: one module hashes.

Every fingerprint, content address and checksum in the package goes
through :mod:`repro.runtime.digest`: one canonical JSON, one SHA-256,
one sealed-file format.  A module that imports ``hashlib`` itself is
hand-rolling a second convention — a different separator or key order
silently splits one content address into two, and a checksum written
outside the sealed file is one no reader verifies.  A dataclass
fingerprinted through the digest module covers every field by
construction, so there is no hand-written field list left to drift.
"""

import ast

from repro.analysis.engine import Check, register


@register
class DigestModule(Check):
    """No ``hashlib`` outside runtime/digest.py: fingerprints and
    checksums come from the one digest module, so every content address
    uses the same canonical form and every persisted digest is one the
    sealed-file reader verifies."""

    name = "digest-module"
    description = "hashlib imported outside runtime/digest.py"
    include = ("src/repro/",)
    exclude = ("src/repro/runtime/digest.py",)

    def check(self, source):
        for node in source.nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "hashlib" for name in names):
                yield self.finding_at(
                    source, node,
                    "`hashlib` imported outside repro.runtime.digest; "
                    "fingerprint with digest.fingerprint and persist "
                    "through digest.write_sealed",
                    data={"module": "hashlib"})
