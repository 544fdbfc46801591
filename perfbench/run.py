#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <gallery_pipeline|generated_10k|server_mix>
                             --seed <n> --seconds <s> --trace <0|1>

`--trace 0` runs the untraced binary (end-to-end metrics); `--trace 1`
runs the traced binary (per-layer metrics, counting allocator, trace-event
file under `.bench_out/`). Cargo's build output goes to standard error, so
the last line of standard output is the benchmark's result object. The
build honours `CARGO_TARGET_DIR` (default: `perfbench/target`).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    trace = "0"
    if "--trace" in argv[:-1]:
        trace = argv[argv.index("--trace") + 1]
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bins",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    name = "perfbench-traced" if trace == "1" else "perfbench"
    binary = os.path.join(target, "release", name)
    sys.stdout.flush()
    os.execv(binary, [binary] + argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
