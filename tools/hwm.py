#!/usr/bin/env python3
"""When a benchmark run's peak resident set rises: which phase sets it.

Runs the built repository benchmark (`perfbench/target/release/benchmark`,
or `--binary`) on one workload with tracing off, samples the process's
`VmHWM` (peak resident set, /proc/<pid>/status) every `--interval`
seconds, and prints every rise of at least `--step` MB over the last
value printed, with the time since the start:

    tools/hwm.py batch_verify [--seed 1] [--seconds 24] [--interval 0.005]
                 [--step 0.1]

        0.131 s   VmHWM   5.02 MB
        ...
        0.521 s   VmHWM   9.89 MB
        1.321 s   VmHWM  10.50 MB
    final         VmHWM  10.50 MB   (peak_rss_mb 10.5 in the result line)

`peak_rss_mb`, the benchmark's memory metric, is the `VmHWM` the run
reads when its measured phase is over, so the rises say whether set-up,
the first measured operations or something late sets it. A rise after
that read (the last lines, when the final `VmHWM` exceeds the result
line's) is not in the metric. A rise that happens between two samples
shows at the later one; make `--interval` smaller to place it closer.
Build the benchmark first:

    cargo build --release --offline --manifest-path perfbench/Cargo.toml

Python 3 standard library only; Linux only (/proc).
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def vm_hwm_kb(pid):
    """The process's `VmHWM` in kB, or None once it has gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        return None
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--interval", type=float, default=0.005,
                        help="seconds between samples (default 0.005)")
    parser.add_argument("--step", type=float, default=0.1,
                        help="smallest rise printed, MB (default 0.1)")
    parser.add_argument("--binary",
                        default=os.path.join(ROOT, "perfbench", "target", "release", "benchmark"))
    args = parser.parse_args()
    if args.interval <= 0:
        parser.error("--interval must be positive")
    if not os.access(args.binary, os.X_OK):
        sys.exit(f"{args.binary}: not built (cargo build --release --offline "
                 "--manifest-path perfbench/Cargo.toml)")

    start = time.monotonic()
    child = subprocess.Popen(
        [args.binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    peak, printed = 0, None
    while child.poll() is None:
        kb = vm_hwm_kb(child.pid)
        if kb is not None and kb > peak:
            peak = kb
            if printed is None or (kb - printed) / 1024 >= args.step:
                printed = kb
                print(f"{time.monotonic() - start:9.3f} s   VmHWM {kb / 1024:6.2f} MB", flush=True)
        time.sleep(args.interval)
    out = child.stdout.read()
    lines = out.strip().splitlines()
    reported = ""
    if lines:
        try:
            value = json.loads(lines[-1])["metrics"]["peak_rss_mb"]["value"]
            reported = f"   (peak_rss_mb {value:.4g} in the result line)"
        except (ValueError, KeyError, TypeError):
            pass
    print(f"final         VmHWM {peak / 1024:6.2f} MB{reported}")
    if child.returncode != 0:
        sys.exit(f"{args.binary}: exit {child.returncode}")


if __name__ == "__main__":
    main()
