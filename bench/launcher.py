"""Run one command per request and report its wall time, exit code and peak RSS.

The benchmark starts this file as its own small interpreter (`python -I -S`)
and sends it every timed command.  On Linux a child's ru_maxrss also counts
the resident memory of the process it was forked from, so forking from this
~10 MB process keeps that floor below any ginlab process, whereas forking
from the benchmark process (which parses outputs of several MB) would not.

Protocol, one tab-separated line per request on stdin:
    <stdout path> <stderr path> <program> <args...>
and two lines back on stdout:
    pid <pid>                         once the child is running
    <wall s> <exit code> <maxrss KiB>  once it has ended
The child's wall time runs from just before fork to just after wait4.
"""

import os
import sys
import time


def spawn(out: str, err: str, argv: list[str]) -> int:
    pid = os.fork()
    if pid:
        return pid
    try:
        os.dup2(os.open(os.devnull, os.O_RDONLY), 0)
        os.dup2(os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 1)
        os.dup2(os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644), 2)
        os.execv(argv[0], argv)
    finally:
        os._exit(127)


def main() -> None:
    for line in sys.stdin:
        out, err, *argv = line.rstrip("\n").split("\t")
        start = time.perf_counter()
        pid = spawn(out, err, argv)
        sys.stdout.write(f"pid {pid}\n")
        sys.stdout.flush()
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        sys.stdout.write(f"{wall!r} {os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
