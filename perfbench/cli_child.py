"""Runs one mktinfo CLI command in this process with its public calls traced.

    python3 perfbench/cli_child.py SPANS.json -- <mktinfo arguments>

Writes the time of a fresh `import mktinfo.cli`, the command's exit code and
its spans to SPANS.json, and exits with the command's code.  The checkout's
src/ must be on PYTHONPATH; run.py starts this once per traced command.
"""

import json
import sys
import time


def main() -> int:
    out, sep, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if sep != "--":
        raise SystemExit("usage: cli_child.py SPANS.json -- <mktinfo arguments>")
    start = time.perf_counter()
    import mktinfo.cli
    import_s = time.perf_counter() - start

    from spans import Tracer

    tracer = Tracer()
    with tracer.installed():
        code = mktinfo.cli.main(argv)
    with open(out, "w") as fh:
        json.dump({"import_s": import_s, "exit_code": code, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
