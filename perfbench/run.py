"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload mine-planted --seed 1 --seconds 20 --trace 0

--trace 0 times the workload's command from outside, repeated for
--seconds (at least twice), and prints the end-to-end metrics.
--trace 1 runs the command under perfbench/tracer.py, alternating with
untraced runs, and prints the per-layer metrics.  Both check every
output.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; error_rate is failed / attempted.
Exits 2 without a result when the checkout has no program source.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from common import BenchError, use_checkout_source


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running child is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    try:
        use_checkout_source()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import runner
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(WORKLOADS)}")
    result = runner.run(WORKLOADS[args.workload], args.seed, args.seconds,
                        bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
