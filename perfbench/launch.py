"""Fork-and-wait helper that starts every measured child process.

The peak RSS wait4 reports for a child never reads below the RSS of the
process it was forked from (and with vfork or posix_spawn, below that
process's own lifetime peak), because the counters carry over the fork and
the exec.  The benchmark process holds inputs, traces and numpy, so it
would mask the peak of a small child.  This helper is started with
`python3 -S` before the benchmark imports anything large and stays a few
MB; it reads one JSON request per line on stdin, runs the child with
fork + execve, and answers one JSON line with the exit code, the wall time
from fork to reap and the child's peak RSS in KiB.
"""

import json
import os
import signal
import sys
import threading
import time


def run(req):
    out = os.open(req["stdout"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(req["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                os.chdir(req["cwd"])
                os.dup2(out, 1)
                os.dup2(err, 2)
                os.execve(req["argv"][0], req["argv"], req["env"])
            finally:
                os._exit(127)
        watchdog = threading.Timer(req["timeout"], os.kill, (pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    finally:
        os.close(out)
        os.close(err)
    return {"returncode": os.waitstatus_to_exitcode(status), "wall_s": wall,
            "maxrss_kb": usage.ru_maxrss}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
