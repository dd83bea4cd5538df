"""Run one command; print its wall time, exit code and peak RSS as JSON.

Usage: python3 launch.py STDOUT_PATH STDERR_PATH PROGRAM [ARG ...]

The kernel's ru_maxrss of a process started with vfork or posix_spawn
includes the memory high-water mark of the process that started it.  The
benchmark driver holds numpy and whole graphs, so it starts this small
launcher for every measured command, and the command inherits only the
launcher's few megabytes.  Stdlib only, on purpose.
"""

import json
import os
import sys
import time


def main() -> int:
    out_path, err_path, *cmd = sys.argv[1:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    out_fd = os.open(out_path, flags, 0o644)
    err_fd = os.open(err_path, flags, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    os.close(out_fd)
    os.close(err_fd)
    print(json.dumps({
        "rc": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "maxrss_kb": usage.ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
