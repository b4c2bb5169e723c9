#!/usr/bin/env python3
"""Build the tilec benchmark from source and run it.

Run from the root of a checkout:

    python3 tilebench/run.py --workload compile|solve|serve --seed N \
        --seconds S --trace 0|1

The build goes to _build/ in the checkout (dune's own cache is off, so
nothing is written outside it); its output goes to standard error, so
the last line of standard output is the benchmark's JSON result.
"""

import os
import shutil
import subprocess
import sys

EXE = os.path.join("_build", "default", "tilebench", "main.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("tilebench: run from the root of a tilec checkout "
                 "(no dune-project or lib/ here)")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("tilebench: dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./tilebench/main.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        sys.exit("tilebench: build failed")
    os.execv(EXE, [EXE] + sys.argv[1:])


if __name__ == "__main__":
    main()
