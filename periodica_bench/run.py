#!/usr/bin/env python3
"""Builds periodica_bench from this checkout and runs it.

Run from the repository root:

    python3 periodica_bench/run.py --workload mine_sparse --seed 1 \
        --seconds 20 --trace 0

The first call configures and builds the periodica library, the serving
binaries and the benchmark (Release) into .bench_build/; later calls only
rebuild what changed. Build output goes to stderr, so the benchmark's result
line stays the last line of stdout. Every argument is passed on to the
benchmark binary (see README.md); result and trace files go to
.bench_build/out/ unless --out is given. Exits 2 when the periodica sources
are not next to this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = ".bench_build"


def build():
    """Configures once, then builds the benchmark and the servers it runs."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(ROOT, BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            cwd=ROOT, stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD, "--parallel", jobs, "--target",
         "periodica_bench"],
        cwd=ROOT, stdout=sys.stderr, check=True)


def main(argv):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        print("run.py: the periodica sources are not next to "
              "periodica_bench/", file=sys.stderr)
        return 2
    # Compiler and server temporaries stay inside the checkout too.
    tmp = os.path.join(ROOT, BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2
    args = list(argv)
    if "--out" not in args:
        args += ["--out", os.path.join(BUILD, "out")]
    if "--work_dir" not in args:
        args += ["--work_dir", os.path.join(BUILD, "work")]
    binary = os.path.join(BUILD, "periodica_bench")
    return subprocess.run([binary] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
