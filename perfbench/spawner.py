"""Spawns and times the report processes of cli_reports.

A child's peak RSS (ru_maxrss) starts from the RSS of the process that
spawned it, because the child runs in its parent's memory until exec.  The
harness holds numpy, curvlab and the configs, more than a report process
needs, so children are spawned from this small interpreter instead.

Protocol: one JSON request per line on stdin, {"argv": [...], "stderr": path};
one JSON reply per line on stdout, {"seconds": s, "exit_code": c, "rss_kb": k}.
The spawner exits when stdin closes.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "exit_code": proc.returncode, "rss_kb": usage.ru_maxrss}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
