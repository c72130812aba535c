"""The library's outputs, pinned: `tools/output_digest.py` run in-process.

A change that alters an output on purpose updates `PINNED` and says which
entries moved (`python3 tools/output_digest.py --entries` in both checkouts
lists one sha256 per entry)."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"

PINNED = "3671 entries sha256 041e350cad9692515364d86ca64211a9bc46f77ea7a04f4f65ea66f23bc70050"


def test_digest_is_pinned_and_repeats_in_one_process():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    # the second run meets every cache the first one filled
    assert [tool.digest(), tool.digest()] == [PINNED, PINNED]
