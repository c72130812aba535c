"""Driving the certification harness.

Every identity ships as a named check with a JSON report and a CI-friendly
exit code (0 pass, 1 violation, 2 invalid input, 3 informative).  The same
checks run from the command line:

    vertexforge check egl --params '{"n_values": [1, 2], "samples": 1}'
    vertexforge check simple
    vertexforge compute '{"type": "vertex", "theory": "DT",
                          "boundary": {"kind": "leg", "shape": []},
                          "qorder": 3, "seed": 1}'

Computed series are cached under ./.vertexforge-cache (override with
--cache-dir or VERTEXFORGE_CACHE); a repeated request returns the stored
bytes unchanged.  Every check and computation uses the shipped convention,
which the reports name.
"""

import json
import tempfile

from vertexforge.harness import compute, run_check

# a small check run
rep = run_check("measure-ratio", {"max_size": 2, "kmax": 2, "samples": 1})
print(f"measure-ratio: {rep.verdict} in {rep.elapsed:.1f}s, exit {rep.exit_code}")
print("convention:", rep.to_json()["convention"])

# a cached computation
request = {
    "type": "vertex",
    "theory": "DT",
    "boundary": {"kind": "leg", "shape": []},
    "qorder": 3,
    "seed": 1,
}
with tempfile.TemporaryDirectory() as cache_dir:
    blob, hit = compute(request, cache_dir=cache_dir)
    blob2, hit2 = compute(request, cache_dir=cache_dir)
assert not hit and hit2 and blob == blob2
coeffs = json.loads(blob)["result"]["coeffs"]
print("leg-free ideal-sheaf series coefficients:")
for n, c in enumerate(coeffs):
    print(f"  q^{n}: {c['coeffs'].get('', '0')}")
