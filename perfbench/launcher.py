"""Start measured commands from a process that stays small.

Linux carries a process's peak resident set across exec: a child's
``ru_maxrss`` is at least the peak of the process that spawned it. The
benchmark's own process grows while it generates inputs and checks
outputs, so it hands every command to this launcher, started before
that growth, and reads back the child's own rusage.

Protocol, one JSON object per line: the launcher reads
``{"argv", "cwd", "env", "stdout", "stderr"}`` from stdin, runs the
command with its output sent to the two files, and answers with
``{"status", "user_s", "sys_s", "peak_rss_mb", "wall_s"}``. It exits at
end of input. On SIGTERM it kills the running command, waits for it and
exits.
"""

import json
import os
import signal
import subprocess
import sys
import time


def main() -> int:
    running = []

    def stop(_signum, _frame):
        for proc in running:
            proc.kill()
            os.waitpid(proc.pid, 0)
        sys.exit(1)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as out, open(job["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(
                job["argv"], cwd=job["cwd"], env=job["env"], stdout=out, stderr=err
            )
            running.append(proc)
            _pid, wait_status, usage = os.wait4(proc.pid, 0)
            running.remove(proc)
            wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        reply = {
            "status": proc.returncode,
            "user_s": usage.ru_utime,
            "sys_s": usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "wall_s": wall,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
