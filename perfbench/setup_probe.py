"""Time one cold set-up of ksfv in a fresh interpreter; print the seconds.

Usage: python3 setup_probe.py SRC_DIR CONFIG_FILE

Set-up is importing ksfv, parsing the generated config and building the
initial fields and the steady signal (`run_config_from`). For a sweep file
the axis keys are dropped and the base configuration is built.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ksfv.config import parse_config_text, run_config_from  # noqa: E402

with open(sys.argv[2], "r", encoding="utf-8") as fh:
    mapping = parse_config_text(fh.read())
run_config_from({k: v for k, v in mapping.items() if not k.startswith(("axis.", "sweep."))})
print(repr(time.perf_counter() - t0))
