import inspect
import re
from pathlib import Path

import edgecolor
from edgecolor import errors


def test_all_names_resolve_once():
    names = edgecolor.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(edgecolor, name)]
    assert not missing, f"exported but undefined: {missing}"


def test_every_error_is_exported_and_raised():
    # An error class nothing raises is dead API; so is one left out of __all__.
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in Path(edgecolor.__file__).parent.glob("*.py"))
    for name, cls in inspect.getmembers(errors, inspect.isclass):
        if not issubclass(cls, errors.EdgeColorError) or cls is errors.EdgeColorError:
            continue
        assert name in edgecolor.__all__, f"{name} is not exported"
        assert re.search(rf"\braise\s+{name}\b", source), f"nothing raises {name}"
