"""Write the outputs of a fixed set of CLI runs, for checking that a change
leaves them byte-identical.

    python3 tools/cli_outputs.py SRC_DIR OUT_DIR

Each run is `python3 -m mktinfo ...` with PYTHONPATH=SRC_DIR and OUT_DIR as
its working directory, so every path it reads, writes or reports is
relative.  A run named NAME leaves NAME.stdout, and NAME.status holding its
exit code and then its stderr; files it writes with -o stay in OUT_DIR.  To
compare two trees, run the script on each into two directories and
`diff -r` them.

Every run shares one parsed-file cache, in an empty temporary directory
outside OUT_DIR that is removed at the end, and each `analyze` and `hurst`
run is made twice: NAME parses its file and stores what loads, and
NAME-again, whose -o file is again-FILE, reads it back from the cache.  A
tree without the cache parses twice.
"""

import os
import subprocess
import sys
import tempfile

N = "200000"
SIMULATIONS = {
    "fbm": ["fbm", "--hurst", "0.6", "--sigma", "0.001", "--seed", "3"],
    "delampertized": ["delampertized", "--hurst", "0.3", "--theta", "2.0", "--sigma", "0.01",
                      "--seed", "1"],
    "pseudo-periodic": ["pseudo-periodic", "--beta", "-0.9", "--tau", "5", "--seed", "0"],
}


def runs():
    """(name, arguments) of each run, in order; later runs read earlier
    files, and each run that loads prices is followed by its repeat."""
    for name, args in _first_runs():
        yield name, args
        if args[0] in ("analyze", "hurst"):
            yield f"{name}-again", [f"again-{arg}" if flag == "-o" else arg
                                    for flag, arg in zip([None] + args, args)]


def _first_runs():
    for model, args in SIMULATIONS.items():
        yield f"simulate-{model}", ["simulate", *args, "--n", N, "-o", f"{model}.csv"]
    for model in SIMULATIONS:
        for command in ("analyze", "hurst"):
            for fmt in ("json", "csv"):
                yield f"{command}-{model}-{fmt}", [command, f"{model}.csv", "--format", fmt]
    # the README's four-panel recipe
    yield "panel-simulate", ["simulate", "pseudo-periodic", "--beta", "-0.9", "--tau", "5",
                             "--n", "3000", "--seed", "4", "-o", "toy.csv"]
    yield "panel-analyze", ["analyze", "toy.csv", "--L-max", "7", "--m-values", "1", "2", "3",
                            "-o", "profile.json"]
    yield "panel-hurst", ["hurst", "toy.csv", "--max-scale", "12", "-o", "loglog.json"]
    yield "panel-theory", ["theory", "delampertized", "--theta", "0.1", "15", "--format", "json",
                           "-o", "curves.json"]
    yield "theory-fbm", ["theory", "fbm"]
    yield "theory-delampertized", ["theory", "delampertized", "--theta", "0.1", "15",
                                   "--format", "json"]
    # error cases
    yield "error-negative-seed", ["simulate", "fbm", "--seed", "-1"]
    yield "error-duplicate-close", ["analyze", "duplicate-close.csv"]
    yield "error-L-max", ["analyze", "fbm.csv", "--L-max", "31"]


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: cli_outputs.py SRC_DIR OUT_DIR")
    src, out = (os.path.abspath(a) for a in argv)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "duplicate-close.csv"), "w") as fh:
        fh.write("timestamp,close,Close\n0,1.0,1.0\n1,2.0,2.0\n")
    with tempfile.TemporaryDirectory(prefix="mktinfo-cache-") as cache:
        env = {**os.environ, "PYTHONPATH": src, "XDG_CACHE_HOME": cache}
        for name, args in runs():
            done = subprocess.run([sys.executable, "-m", "mktinfo", *args], cwd=out, env=env,
                                  capture_output=True)
            with open(os.path.join(out, f"{name}.stdout"), "wb") as fh:
                fh.write(done.stdout)
            with open(os.path.join(out, f"{name}.status"), "wb") as fh:
                fh.write(b"exit %d\n" % done.returncode + done.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
