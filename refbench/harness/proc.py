"""Where a run keeps its files, how it starts the program, and the host probe."""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import List

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a child that outlives this is killed; a whole run must end within 180 s
CHILD_TIMEOUT = 150.0

#: program start-ups per run whose median is the run's ``setup_s`` (batch
#: runs count their sweeps' start-ups, ``service`` its serving server's);
#: one start-up varies by about a tenth from the next on a quiet host
SETUP_SAMPLES = 7


@dataclass
class Context:
    """One benchmark run: the program checkout it drives and its work directory."""

    root: str
    work: str

    @classmethod
    def create(cls, root: str, label: str) -> "Context":
        work = os.path.join(root, ".refbench_work", label)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(os.path.join(work, "tmp"))
        return cls(root=root, work=work)

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    @property
    def env(self) -> dict:
        """The program's environment: its own sources, temporary files inside the run."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["TMPDIR"] = self.path("tmp")
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        return env

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def program_present(root: str) -> bool:
    return os.path.isfile(os.path.join(root, "src", "repro", "__init__.py"))


def build(ctx: Context) -> None:
    """Byte-compile the program, so no timed start-up pays for compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ctx.root, "src", "repro")],
        env=ctx.env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT,
    )


def bench_script(name: str) -> str:
    return os.path.join(BENCH_DIR, name)


def run_child(args: List[str], ctx: Context) -> subprocess.CompletedProcess:
    """Run a Python child to completion; raises if it fails."""
    proc = subprocess.run(
        [sys.executable, *args],
        env=ctx.env,
        cwd=ctx.root,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[:2]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: how fast the host is right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def stop(proc: subprocess.Popen) -> None:
    """Interrupt a child, then kill it if it lingers 20 s; always reap it."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=20.0)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
