"""Run a child process so that nothing it started outlives it."""

from __future__ import annotations

import os
import signal
import subprocess
import time
from typing import Dict, List, Optional, Tuple


def run_process(command: List[str], env: Dict[str, str], timeout_s: float,
                capture_stdout: bool = False, cwd: Optional[str] = None
                ) -> Tuple[int, float, str, str]:
    """Run ``command`` in its own process group and wait for it.

    Returns ``(exit code, wall seconds, stdout, stderr)``.  On timeout the
    whole group is killed (pool workers included) and ``TimeoutExpired`` is
    raised after the child has been reaped.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        command, env=env, cwd=cwd, text=True, start_new_session=True,
        stdout=subprocess.PIPE if capture_stdout else subprocess.DEVNULL,
        stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=timeout_s)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
        raise
    wall = time.perf_counter() - started
    return proc.returncode, wall, stdout or "", stderr or ""
