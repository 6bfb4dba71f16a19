"""Run a command and fail when its peak resident memory passes a limit.

    python tests/max_rss.py LIMIT_MB COMMAND [ARG ...]

Prints the child's peak resident set size, read from ``RUSAGE_CHILDREN``
once it has exited (``ru_maxrss``, KiB on Linux). Exits with the child's
status if the child fails, else 1 when the peak is above LIMIT_MB, else 0.

The child runs with glibc's mmap threshold fixed at its initial 128 KiB
(``MALLOC_MMAP_THRESHOLD_``), so every large array is mapped on its own and
unmapped when freed. glibc otherwise raises the threshold after such a free
and places later arrays in its heap, where a freed block can stay resident:
the peak then reads the allocation order as well as the live arrays.
"""

import os
import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 2:
        sys.exit("usage: python tests/max_rss.py LIMIT_MB COMMAND [ARG ...]")
    limit_mb = float(argv[0])
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"}
    status = subprocess.run(argv[1:], env=env).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"peak RSS {peak_mb:.1f} MB (limit {limit_mb:g} MB): {' '.join(argv[1:])}")
    if status:
        return status
    return 1 if peak_mb > limit_mb else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
