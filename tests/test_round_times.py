"""`tools/round_times.py`: one in-process localize-vertex round of the
repository against itself."""

import importlib.util
import subprocess
import sys
from pathlib import Path

from vertexforge import harness

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "round_times.py"


def _tool():
    spec = importlib.util.spec_from_file_location("round_times", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_one_localize_vertex_round(tmp_path):
    tool = _tool()
    best = tool.round_times(ROOT, ROOT, "localize-vertex", 7, 1, str(tmp_path))
    workloads = tool.load_workloads(ROOT)
    wl = workloads.WORKLOADS["localize-vertex"](None, str(tmp_path))
    classes = {wl.case_class(c) for c in wl.cases(7, 0)}
    for side in ("base", "change"):
        assert best[side].keys() == classes | {"round"}
        assert all(t > 0 for t in best[side].values())
        assert best[side]["round"] == sum(t for c, t in best[side].items() if c != "round")
    # each load imported its own library; the test's own stays in place
    assert workloads.harness is not harness and sys.modules["vertexforge.harness"] is harness


def test_main_prints_the_round(tmp_path):
    out = subprocess.run([sys.executable, str(TOOL), "--base", str(ROOT), "--change", str(ROOT),
                          "--workload", "localize-vertex", "--rounds", "1"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.splitlines()
    assert lines[0].split()[:5] == ["base", "ms", "change", "ms", "ratio"]
    # one line per case class, then the whole round
    assert lines[-1].split()[-1] == "round" and len(lines) == 2 + 30
    assert list(tmp_path.iterdir()) == []
