"""Child processes of the benchmark: environment, argv and a capped, measured wait."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


def cli_args(argv: tuple[str, ...] | list[str]) -> list[str]:
    return [sys.executable, "-m", "spreadforge.cli", *argv]


@dataclass(frozen=True)
class Child:
    code: int | None   # None when the child was killed at its cap
    stdout: str
    stderr: str
    wall_s: float
    maxrss_kb: int


class Launcher:
    """Starts children against a checkout, keeping every file they need under `workbase`.

    Children see the checkout's source and no SPREADFORGE_WORKERS.  Their
    bytecode is cached under `workbase`, as an installed package's would
    be, whatever PYTHONDONTWRITEBYTECODE the caller has set: the first start
    of a run compiles, the rest reuse it.
    """

    def __init__(self, root: Path, workbase: Path):
        workbase.mkdir(parents=True, exist_ok=True)
        self.capture = workbase
        env = dict(os.environ)
        env.pop("SPREADFORGE_WORKERS", None)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = str(workbase / "pycache")
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def run(self, args: list[str], cap_s: float) -> Child:
        """Run one child to completion, or kill it at cap_s; wait4 gives its own max RSS."""
        with open(self.capture / "stdout", "w+b") as out, open(self.capture / "stderr", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env)
            killed = threading.Event()

            def kill() -> None:
                killed.set()
                try:
                    os.kill(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            timer = threading.Timer(cap_s, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(None if killed.is_set() else proc.returncode,
                         out.read().decode(errors="replace"), err.read().decode(errors="replace"),
                         wall, usage.ru_maxrss)
