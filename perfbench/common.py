"""Paths, the child-process environment, and timing of one child command.

Every program run is a child process started from the checkout root with
``src`` on ``PYTHONPATH`` and the pure-Python kernels forced, so the
benchmark measures the code in this checkout and nothing installed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"

# a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120.0


class BenchError(RuntimeError):
    """The checkout has no usable program source."""


def use_checkout_source() -> None:
    """Make ``import gadgetminer`` in this process load ``src`` of the
    checkout, on the pure-Python kernels."""
    if not (SRC / "gadgetminer" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'gadgetminer'}")
    os.environ["GADGETMINER_PURE"] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gadgetminer

    if Path(gadgetminer.__file__).resolve().parent != SRC / "gadgetminer":
        raise BenchError(f"gadgetminer imported from {gadgetminer.__file__}")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["GADGETMINER_PURE"] = "1"
    env.pop("GADGETMINER_OUTPUT", None)
    return env


@dataclass
class Proc:
    """Outcome of one child command, measured from outside."""

    argv: list[str]
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    log: Path

    def log_tail(self, lines: int = 5) -> str:
        try:
            text = self.log.read_text(errors="replace")
        except OSError:
            return ""
        return " | ".join(text.strip().splitlines()[-lines:])


def run_child(argv: list[str], log: Path) -> Proc:
    """Run one command to completion and reap it with ``os.wait4``.

    wall_s runs from spawn to exit.  The rusage of the reaped child covers
    the child and every descendant it reaped (pool workers included):
    cpu_s is their user + sys time and peak_rss_mb the largest resident
    set among them.  The child leads its own process group, so a timeout
    kills its workers too."""
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT,
                                start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    # workers a crashed command left behind
    _kill_group(proc.pid)
    proc.returncode = rc = os.waitstatus_to_exitcode(status)
    return Proc(argv, rc, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, log)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
