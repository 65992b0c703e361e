"""One cold set-up in a fresh interpreter, for the benchmark's `setup_s`.

Usage: python3 perfbench/setup_probe.py INPUTS_JSON WORKDIR

Imports sectionlab from the checkout's src/, writes and loads every config
of the inputs through load_config, builds each map and metric, then prints
`ready`.  The parent times from spawning this process to that line.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports sectionlab)

workloads.prepare(json.loads(Path(sys.argv[1]).read_text(encoding="utf-8")), Path(sys.argv[2]))
print("ready", flush=True)
