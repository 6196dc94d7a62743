"""Benchmark command: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``, run from the repository root.

Prints one JSON line of run detail, then, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).
``perfbench/README.md`` describes the workloads and metrics.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# One load-generating process whose numeric libraries use one thread each:
# the host has few CPUs shared with other tenants, and a second BLAS thread
# makes timings depend on what the neighbours run.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    root = here.parent
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {src}/repro", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(here)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        return 2
    from ditto_bench import runner, workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    out = runner.execute(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps({"detail": out["detail"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
