"""Write the gate's reference files from library passes of this checkout.

    python3 perfbench/make_reference.py

Each reference holds the invariants `gate.summarize_library` reads from one
library pass without a convention seed. Rewrite them only when fpres is
meant to produce different results, and say why in the change.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import workloads  # noqa: E402

# reference name -> (library pass, su(N)_k for the set-up)
PASSES = {
    "su5-pair": (workloads.su5_pair, (5, 5)),
    "su2x4-diag": (workloads.su2x4_diag, (5, 5)),
    "smoke-su2": (workloads.smoke_su2, (2, 4)),
    "smoke-su2x2": (workloads.smoke_su2x2, (2, 4)),
}


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        for name, (run, nk) in PASSES.items():
            ctx = workloads.Context(work, 0, nk)
            workloads.setup(ctx)
            path = os.path.join(HERE, "reference", f"{name}.json")
            with open(path, "w") as fh:
                json.dump(gate.summarize_library(run(ctx)), fh, indent=1,
                          sort_keys=True)
                fh.write("\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
