"""Check that one benchmark run leaves no process behind.

Snapshots the live pids from /proc (read-only), runs
``perfbench/run.py --workload WORKLOAD --seed 1 --seconds 12``, waits
2 s, then prints every pid that was not there before and is still
alive, with its command line. Zombies are excluded, and so are kernel
threads (children of kthreadd, pid 2), which the kernel starts and
stops on its own and which have an empty command line. Exits 1 if
there is any, 0 otherwise.

Usage: python scripts/check_leftover_procs.py WORKLOAD
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent


def live_pids() -> set[int]:
    pids = set()
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            stat = pathlib.Path(f"/proc/{name}/stat").read_text()
        except OSError:  # exited while listing
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z" and ppid != "2":
            pids.add(int(name))
    return pids


def cmdline(pid: int) -> str:
    try:
        raw = pathlib.Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return "?"
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    before = live_pids()
    # output to a file, not a pipe: a leftover holding the pipe open
    # would make the wait last as long as the leftover itself
    with tempfile.TemporaryFile(mode="w+") as out:
        run = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", argv[0],
             "--seed", "1", "--seconds", "12"],
            stdin=subprocess.DEVNULL, stdout=out, stderr=subprocess.DEVNULL)
        time.sleep(2)
        left = sorted(live_pids() - before - {os.getpid()})
        out.seek(0)
        lines = out.read().strip().splitlines()
    try:
        res = json.loads(lines[-1])
        summary = {k: res.get(k) for k in ("correct", "attempted", "failed")}
    except (IndexError, ValueError):
        summary = "no result line"
    print(f"{argv[0]}: run.py exit {run.returncode}, {summary}")
    for pid in left:
        print(f"left running: pid {pid}: {cmdline(pid)}")
    print(f"{argv[0]}: {len(left)} leftover process(es)")
    return 1 if left else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
