"""The shipped checks.

Importing this package registers every check with the engine's registry
(see :mod:`repro.analysis.engine`).  To add a check: implement a
:class:`~repro.analysis.engine.Check` subclass in a module here,
decorate it with ``@register``, and import the module below.
``docs/static_analysis.md`` documents the full recipe.
"""

from repro.analysis.checks import (  # noqa: F401  (registration)
    atomic_io,
    catalog,
    concurrency,
    determinism,
    digest,
    docs,
    errors,
)
