"""Fixed host-speed probe: the same work on every run, independent of the package.

Usage: python3 probe.py

The end-to-end runner starts this after every timed command and divides the
run's timings by the median wall time of these probes (see run.py).  Its work
mirrors the commands' own mix: interpreter start and numpy import, parsing an
edge-list text, a label dict, per-vertex Python lists and a few numpy array
operations.  It imports nothing from the package, so a change to the package
cannot change the probe's time; only the host's speed can.
"""

import random

import numpy as np

N = 90_000


def main() -> int:
    rng = random.Random(20240828)
    text = "\n".join(f"{rng.randrange(N)} {rng.randrange(N)}" for _ in range(N))
    label: dict[str, int] = {}
    rows = []
    for line in text.splitlines():
        a, b = line.split()
        rows.append((label.setdefault(a, len(label)), label.setdefault(b, len(label))))
    adjacency: list[list[int]] = [[] for _ in range(len(label))]
    for e, (u, v) in enumerate(rows):
        adjacency[u].append(e)
        adjacency[v].append(e)
    arr = np.array(rows, dtype=np.int64)
    degree = np.bincount(arr.ravel())
    order = np.argsort(arr[:, 0] * len(label) + arr[:, 1], kind="stable")
    return 0 if int(degree.sum()) == 2 * N and len(order) == N else 1


if __name__ == "__main__":
    raise SystemExit(main())
