"""Set-up probe: a fresh interpreter imports blockdet and makes a workload's
first call, then prints ``ready``.  ``run.py`` times it from spawn to that line.

    python3 bench/probe.py SRC_DIR WORKLOAD MATRIX_FILE
"""

import contextlib
import io
import sys

src, workload, matrix = sys.argv[1:4]
sys.path.insert(0, src)

from blockdet.cli import main  # noqa: E402  (imports the whole package)
from blockdet.search import GeneratorSpec, search_violations  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    if workload == "control_grid":
        search_violations(GeneratorSpec(n=4, r=2, m=2), "thm1", 1)
    else:
        main(["check", matrix, "--ineq", "cor_c0", "--r", "1", "--format", "structured"])
print("ready", flush=True)
