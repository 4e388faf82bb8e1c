"""Time two checkouts' `cross_validate` on large tables, each run in a fresh process.

    python3 tools/ab_bigtree.py CHECKOUT_A CHECKOUT_B

The tables are the bundled CFR rows resampled with replacement, every
numeric value and the response multiplied by 1 + 0.05 z (z standard normal,
seed 0); categorical columns are kept. Cases: 250 rows at the default
minsplit; 5,000 rows at `minsplit=10`; 20,000 rows at the default; 20,000
rows at `minsplit=100`. Each case runs `cross_validate` (10 folds, fold seed
0) once per side and round in a new interpreter that imports that checkout's
package, the side that goes first alternating by round. Prints each run's
seconds in `cross_validate` and the process's peak RSS, which includes the
import and the table. Fails if the CV table or the chosen tree's `to_dict()`
differ between the sides.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROUNDS = 3
CASES = ((250, None), (5_000, 10), (20_000, None), (20_000, 100))

CHILD = """
import json, resource, sys, time
import numpy as np
from epiforecast import datasets, tree

rows, minsplit = int(sys.argv[1]), json.loads(sys.argv[2])
cfr = datasets.load_cfr_table()
rng = np.random.default_rng(0)
pick = rng.integers(0, cfr.n, size=rows)
numeric = np.array([kind == tree.NUMERIC for kind in cfr.kinds])
x = cfr.x[pick]
x[:, numeric] *= 1 + 0.05 * rng.standard_normal((rows, int(numeric.sum())))
y = cfr.y[pick] * (1 + 0.05 * rng.standard_normal(rows))
table = tree.Table(cfr.names, cfr.kinds, x, y)
start = time.perf_counter()
cv = tree.cross_validate(table, minsplit=minsplit)
seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds,
                  "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "outputs": repr((cv.table, cv.tree.to_dict()))}))
"""


def run(checkout: Path, rows: int, minsplit) -> dict:
    """One case in a fresh interpreter on `checkout`'s package."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, str(rows), json.dumps(minsplit)],
                          env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"{checkout}: {rows} rows, minsplit {minsplit} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main() -> None:
    if len(sys.argv) != 3:
        sys.exit("usage: " + __doc__.splitlines()[2].strip())
    checkouts = [Path(arg).resolve() for arg in sys.argv[1:]]
    for r in range(ROUNDS):
        for rows, minsplit in CASES:
            runs = [None, None]
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                runs[side] = run(checkouts[side], rows, minsplit)
            a, b = runs
            if a["outputs"] != b["outputs"]:
                sys.exit(f"round {r + 1}, {rows} rows, minsplit {minsplit}: outputs differ")
            print(f"round {r + 1} {rows} rows minsplit {minsplit or 'default'}: "
                  f"A {a['seconds']:.2f} s {a['rss_mb']:.0f} MB, "
                  f"B {b['seconds']:.2f} s {b['rss_mb']:.0f} MB, "
                  f"B/A {b['seconds'] / a['seconds']:.3f}; CV table and tree identical",
                  flush=True)


if __name__ == "__main__":
    main()
