"""Set-up probe: start an interpreter, import lcmlat, parse the documents on stdin.

run.py times this whole process, several times per run, for the setup_s metric.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import lcmlat  # noqa: E402

payload = json.load(sys.stdin)
parse = {"lattice": lcmlat.lattice_from_json, "ideal": lcmlat.gens_from_json}.get(payload["kind"])
for doc in payload["docs"]:
    parse(doc)
