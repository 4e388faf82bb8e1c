"""Time two checkouts' `risktree` command on the same table, in one process.

    python3 tools/ab_risktree.py CHECKOUT_A CHECKOUT_B TABLE.csv

Runs `epiforecast risktree TABLE.csv --seed S` with each checkout's package
for fold seeds 0-34, in several rounds, the side that goes first alternating
by seed and round. Fails if a written file differs in one byte between the
sides; prints each round's per-op median for both sides and their ratio B/A,
where host drift mostly cancels.
"""

import contextlib
import importlib
import io
import statistics
import sys
import tempfile
import time
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

SEEDS = range(35)
ROUNDS = 3


def load(checkout: Path, name: str):
    """The `cli` module of `checkout`'s package, imported as `name`."""
    package_dir = checkout / "src" / "epiforecast"
    spec = spec_from_file_location(name, package_dir / "__init__.py",
                                   submodule_search_locations=[str(package_dir)])
    sys.modules[name] = module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return importlib.import_module(f"{name}.cli")


def timed(cli, table: Path, seed: int, out: Path) -> tuple[float, dict]:
    """(seconds, {file name: bytes}) of one `risktree` op written into `out`."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["risktree", str(table), "--seed", str(seed), "--out", str(out)])
    seconds = time.perf_counter() - start
    if status:
        sys.exit(f"risktree {table} --seed {seed} failed")
    return seconds, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def main() -> None:
    if len(sys.argv) != 4:
        sys.exit("usage: " + __doc__.splitlines()[2].strip())
    a, b, table = map(Path, sys.argv[1:])
    sides = (load(a, "_ab_side_a"), load(b, "_ab_side_b"))
    with tempfile.TemporaryDirectory() as work:
        outs = [Path(work) / "a", Path(work) / "b"]
        for side in (0, 1):  # warm both sides' imports and caches
            timed(sides[side], table, 0, outs[side])
        for r in range(ROUNDS):
            times = ([], [])
            for seed in SEEDS:
                files = [None, None]
                for side in ((0, 1) if (seed + r) % 2 == 0 else (1, 0)):
                    seconds, files[side] = timed(sides[side], table, seed, outs[side])
                    times[side].append(seconds)
                if files[0] != files[1]:
                    differ = sorted(n for n in {*files[0], *files[1]}
                                    if files[0].get(n) != files[1].get(n))
                    sys.exit(f"seed {seed}: {', '.join(differ)} differ")
            med_a, med_b = (statistics.median(t) * 1e3 for t in times)
            print(f"round {r + 1}: A {med_a:.2f} ms, B {med_b:.2f} ms per op, "
                  f"B/A {med_b / med_a:.3f}; {len(SEEDS)} seeds, every file byte-identical")


if __name__ == "__main__":
    main()
