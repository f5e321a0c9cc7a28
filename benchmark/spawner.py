"""Process spawner for run.py: runs each command it is sent and reports its cost.

The kernel records the peak RSS of the process a child was forked from in
the child's own ru_maxrss. run.py is large (it holds the checks and their
imports), so a small request forked from it would report run.py's memory.
run.py therefore starts this small process once and has it fork every
request and reference run.

Protocol: one JSON line per command on stdin, {"cmd": [...], "timeout": s}.
One JSON line back per command: latency_s (spawn to reaped exit),
maxrss_kb, returncode, spawned (time.monotonic() at spawn), and stdout and
stderr in base64. A command that outlives its timeout is killed.
"""

import base64
import json
import os
import selectors
import subprocess
import sys
import time


def run(cmd, timeout):
    spawned = time.monotonic()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = start + timeout
    killed = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            wait = None if killed else deadline - time.perf_counter()
            if wait is not None and wait <= 0:
                proc.kill()
                killed, wait = True, None
            for key, _ in sel.select(wait):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    # wait4 rather than Popen.wait, to get this child's own peak RSS.
    _, status, usage = os.wait4(proc.pid, 0)
    latency = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "latency_s": latency,
        "maxrss_kb": usage.ru_maxrss,
        "returncode": proc.returncode,
        "spawned": spawned,
        "stdout": base64.b64encode(b"".join(chunks[proc.stdout])).decode(),
        "stderr": base64.b64encode(b"".join(chunks[proc.stderr])).decode(),
    }


def main():
    for line in sys.stdin:
        msg = json.loads(line)
        sys.stdout.write(json.dumps(run(msg["cmd"], msg["timeout"])) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
