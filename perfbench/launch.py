"""Run one command and report its own time and peak memory.

    python3 -S -I launch.py TIMEOUT STDOUT STDERR PROGRAM [ARG...]

Prints one JSON object: exit code, perf_counter stamps around the command,
its peak RSS in KiB and whether it was killed after TIMEOUT seconds.

On Linux a child's ru_maxrss is at least the resident size of the process
that started it, so run.py, whose own memory grows with what it records,
starts every measured command through this small process instead.
"""

import json
import os
import signal
import sys
import time


def main():
    timeout, out, err, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    fds = [os.open(os.devnull, os.O_RDONLY),
           os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
           os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            for target, fd in enumerate(fds):
                os.dup2(fd, target)
            os.execv(argv[0], argv)
        finally:
            os._exit(127)
    timed_out = []

    def kill(signum, frame):
        timed_out.append(1)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:  # exited as the alarm fired
            pass

    signal.signal(signal.SIGALRM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    end = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({"code": os.waitstatus_to_exitcode(status), "start": start,
                      "end": end, "maxrss_kb": usage.ru_maxrss,
                      "timed_out": bool(timed_out)}))


if __name__ == "__main__":
    main()
