"""One ``spi-explored`` process driven over its ndjson stdin/stdout."""

import json
import os
import subprocess
import threading
import time

CLOCK_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


class DaemonError(RuntimeError):
    pass


class Daemon:
    """A daemon child with one request pipe; every request gets one line."""

    def __init__(self, binary, args, stderr_path, deadline_s):
        self.stderr = open(stderr_path, "ab")
        self.proc = subprocess.Popen(
            [binary, *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
        )
        # A wedged daemon must not hang the run: kill it at the deadline, so
        # the pending read sees EOF and the run fails instead.
        self.watchdog = threading.Timer(deadline_s, self.kill)
        self.watchdog.daemon = True
        self.watchdog.start()

    def send(self, request_line):
        """Sends one request line and returns (answer, sent_at, answered_at)."""
        sent = time.perf_counter()
        self.proc.stdin.write(request_line.encode() + b"\n")
        self.proc.stdin.flush()
        raw = self.proc.stdout.readline()
        answered = time.perf_counter()
        if not raw:
            raise DaemonError(f"daemon closed its output (exit {self.proc.poll()})")
        return json.loads(raw), sent, answered

    def request(self, request):
        answer, _, _ = self.send(json.dumps(request, separators=(",", ":")))
        if answer.get("ok") is not True:
            raise DaemonError(f"request {request} answered {answer}")
        return answer

    def cpu_s(self):
        """User + system CPU of the daemon so far (all threads)."""
        with open(f"/proc/{self.proc.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) * CLOCK_TICK_S

    def peak_rss_mib(self):
        with open(f"/proc/{self.proc.pid}/status") as status:
            for row in status:
                if row.startswith("VmHWM:"):
                    return int(row.split()[1]) / 1024.0
        raise DaemonError("VmHWM missing from /proc status")

    def shutdown(self, timeout_s=60):
        """Clean shutdown: the ``shutdown`` op, then EOF; waits for exit."""
        try:
            self.request({"op": "shutdown"})
            self.proc.stdin.close()
            self.proc.wait(timeout=timeout_s)
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.watchdog.cancel()
        if not self.stderr.closed:
            self.stderr.close()
