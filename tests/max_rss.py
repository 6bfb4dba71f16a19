"""Run a command and fail when its peak resident memory passes a limit.

    python tests/max_rss.py LIMIT_MB COMMAND [ARG ...]

Prints the child's peak resident set size, read from ``RUSAGE_CHILDREN``
once it has exited (``ru_maxrss``, KiB on Linux). Exits with the child's
status if the child fails, else 1 when the peak is above LIMIT_MB, else 0.
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 2:
        sys.exit("usage: python tests/max_rss.py LIMIT_MB COMMAND [ARG ...]")
    limit_mb = float(argv[0])
    status = subprocess.run(argv[1:]).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB): {' '.join(argv[1:])}")
    if status:
        return status
    return 1 if peak_mb > limit_mb else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
