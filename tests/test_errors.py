"""Error types: every one has a raiser or a handler in the package."""

import inspect
import re
from pathlib import Path

import mvcoords
from mvcoords import errors


def test_every_error_type_is_used():
    """A class in errors.py that no other module names is left over from a
    deleted code path."""
    package = Path(mvcoords.__file__).parent
    sources = "\n".join(
        f.read_text(encoding="utf-8") for f in package.glob("*.py")
        if f.name not in ("errors.py", "__init__.py")
    )
    types = [name for name, obj in inspect.getmembers(errors, inspect.isclass)
             if obj.__module__ == errors.__name__]
    assert len(types) >= 10
    unused = [name for name in types if not re.search(rf"\b{name}\b", sources)]
    assert unused == []
