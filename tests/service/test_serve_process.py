"""The ``serve`` process drains on a signal from its first announced moment.

A client that starts ``serve`` and sends SIGTERM as soon as it reads the
``simserve listening on`` line must get the graceful drain -- exit 0 and
``simserve stopped`` -- not the default SIGTERM kill.  The line must
reach a pipe whether or not Python's output is unbuffered: with
``--port 0`` it is the only place the address appears.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[2] / "src"
DEADLINE_S = 60.0


def test_sigterm_right_after_the_announce_line_drains(tmp_path):
    drain_after_announce(tmp_path, python_flags=["-u"])


def test_announce_line_reaches_a_pipe_without_unbuffered_output(
        tmp_path):
    drain_after_announce(tmp_path, python_flags=[])


def drain_after_announce(tmp_path, python_flags):
    env = dict(os.environ)
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.Popen(
        [sys.executable, *python_flags, "-m", "repro.experiments", "serve",
         "--store", str(tmp_path / "store"), "--port", "0",
         "--workers", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    lines = []
    try:
        deadline = time.monotonic() + DEADLINE_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        deadline - time.monotonic())
            line = proc.stdout.readline() if ready else ""
            lines.append(line)
            if not line or "simserve listening on" in line:
                break
        assert "simserve listening on" in lines[-1], lines
        proc.send_signal(signal.SIGTERM)
        rest, _ = proc.communicate(timeout=DEADLINE_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    output = "".join(lines) + rest
    assert proc.returncode == 0, output
    assert "SIGTERM: draining" in output
    assert output.rstrip().endswith("simserve stopped")
