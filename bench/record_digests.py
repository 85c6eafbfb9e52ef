"""Record the sha256 of every seed-independent benchmark command's output.

    python3 bench/record_digests.py

Run this only on the reference commit whose outputs the benchmark should
hold later commits to; it rewrites bench/digests.json.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from checks import DIGESTS, digest
from run import CLI, child_env, run_child
from workloads import fixed_commands


def main() -> int:
    env = child_env()
    digests = {}
    for cmd in fixed_commands():
        child = run_child(["-c", CLI, *cmd.argv], env, perf_counter() + 600)
        if child.code != 0:
            print(f"{cmd.key}: exit code {child.code}\n{child.errors.decode()}", file=sys.stderr)
            return 1
        digests[cmd.key] = digest(child.output)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"{len(digests)} digests written to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
