"""Process hygiene: every rep runs in its own session and leaves nothing.

A rep is a fresh interpreter started with ``start_new_session=True``, so
the session id (= the rep's pid) marks every process it ever starts —
including multiprocess workers and ``multiprocessing``'s resource tracker,
which outlive a crashed parent.  After the rep exits or times out the
session is scanned in ``/proc``; anything still alive after a short grace
period, and any ``repro_*`` shared-memory segment that appeared during the
rep, fails the rep, is cleaned up, and is reported.
"""

from __future__ import annotations

import os
import signal
import subprocess
import time
from dataclasses import dataclass, field

from repro.core.shm_ring import list_repro_segments
from repro.util.timing import now

__all__ = ["RepOutcome", "run_in_session", "live_descendants", "kill_session",
           "remove_new_segments"]

#: How long processes of an exited rep may take to notice and exit on
#: their own (the resource tracker exits when its pipe closes).
_GRACE_S = 2.0
_SHM_DIR = "/dev/shm"


@dataclass
class RepOutcome:
    returncode: int | None  # None = timed out
    leaked_pids: list[int] = field(default_factory=list)
    leaked_segments: list[str] = field(default_factory=list)

    @property
    def problems(self) -> list[str]:
        found = []
        if self.returncode is None:
            found.append("rep timed out")
        elif self.returncode != 0:
            found.append(f"rep exited with code {self.returncode}")
        if self.leaked_pids:
            found.append(f"rep left processes running: {self.leaked_pids}")
        if self.leaked_segments:
            found.append(f"rep left shm segments: {self.leaked_segments}")
        return found


def _stat_fields(pid: int) -> tuple[int, int] | None:
    """``(ppid, session)`` of a live, non-zombie process, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii", errors="replace") as fh:
            # "pid (comm) state ppid pgrp session ..." — comm may hold spaces.
            state, ppid, _pgrp, session = fh.read().rpartition(")")[2].split()[:4]
    except (OSError, ValueError):
        return None
    return None if state == "Z" else (int(ppid), int(session))


def _pids() -> list[int]:
    return [int(name) for name in os.listdir("/proc") if name.isdigit()]


def _session_members(session: int) -> list[int]:
    return [pid for pid in _pids() if (_stat_fields(pid) or (0, -1))[1] == session]


def live_descendants(sessions: set[int]) -> list[int]:
    """Live processes that are our children or belong to a rep's session."""
    me = os.getpid()
    found = []
    for pid in _pids():
        fields = _stat_fields(pid)
        if fields is not None and pid != me and (fields[0] == me or fields[1] in sessions):
            found.append(pid)
    return found


def kill_session(session: int) -> None:
    """SIGKILL the session's process group, then any straggler by pid.

    A session with no live member is left alone: its id is only reserved
    while a member lives, so it may since have been reused as a pid.
    """
    if not _session_members(session):
        return
    try:
        os.killpg(session, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    deadline = now() + _GRACE_S
    while True:
        members = _session_members(session)
        if not members or now() > deadline:
            return
        for pid in members:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        time.sleep(0.02)


def remove_new_segments(before: set[str]) -> list[str]:
    """Unlink (and name) every ``repro_*`` shm segment not in ``before``."""
    leaked = sorted(set(list_repro_segments()) - before)
    for name in leaked:
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:
            pass
    return leaked


def run_in_session(
    argv: list[str], env: dict[str, str], timeout_s: float, sessions: set[int]
) -> RepOutcome:
    """Run ``argv`` in a new session; reap it and everything it started.

    The session id is added to ``sessions`` *before* waiting, so a signal
    handler in the caller can always find and kill a rep in flight, and it
    stays there: ``sessions`` is every session the caller ever started,
    which is what its exit check scans ``/proc`` for.
    """
    segments_before = set(list_repro_segments())
    proc = subprocess.Popen(
        argv, env=env, start_new_session=True,
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )
    sessions.add(proc.pid)
    try:
        returncode: int | None = proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        returncode = None
        kill_session(proc.pid)
        proc.wait()
    # Survivors of a rep that has *exited* get a grace period to exit on
    # their own; whatever remains was leaked.
    deadline = now() + _GRACE_S
    leaked = _session_members(proc.pid)
    while leaked and now() < deadline:
        time.sleep(0.02)
        leaked = _session_members(proc.pid)
    if leaked:
        kill_session(proc.pid)
    leaked_segments = remove_new_segments(segments_before)
    return RepOutcome(returncode, leaked, leaked_segments)
