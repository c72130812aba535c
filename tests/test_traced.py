"""Every function the benchmark's tracer wraps still exists in the library.

`perfbench/spans.py` rebinds each `(module, attribute, class)` entry of its
`TRACED` table when a run is traced; a library change that deletes or
renames one of them would otherwise show only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


@pytest.mark.parametrize("entry", _traced(), ids=lambda e: ".".join(filter(None, (e[1], e[3], e[2]))))
def test_traced_entry_resolves(entry):
    _, module, attr, cls, _ = entry
    home = importlib.import_module(f"vertexforge.{module}")
    owner = vars(getattr(home, cls)) if cls else vars(home)
    assert callable(owner.get(attr)), f"vertexforge.{module}: {cls or ''} {attr} is gone"
