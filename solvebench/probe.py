"""Time one cold start: import quatode, then solve each problem file once.

Usage:  python3 solvebench/probe.py SRC_DIR PROB CSV [PROB CSV ...]

Prints one JSON line ``{"seconds": s, "rss_mb": m, "codes": [...]}``: the
wall time from before the import to the end of the last solve, the
process's peak resident memory, and each solve's exit code.
The benchmark runs this several times in fresh processes to measure set-up.
"""

import time

START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    src, *pairs = sys.argv[1:]
    sys.path.insert(0, src)
    from quatode import cli

    codes = []
    for prob, csv in zip(pairs[::2], pairs[1::2]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(["solve", prob, "--verify", "--out", csv]))
    seconds = time.perf_counter() - START
    print(json.dumps({"seconds": seconds, "rss_mb": peak_rss_mb(),
                      "codes": codes}))


def peak_rss_mb() -> float:
    """High-water resident memory of this process image.

    Read from /proc rather than ``getrusage``, whose ``ru_maxrss`` keeps the
    parent's size across fork and exec.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


if __name__ == "__main__":
    main()
