"""Keeps a CPU from going idle, without ever taking it from anyone.

``PerfCluster`` runs one of these beside its node processes, on their
CPU, under ``SCHED_IDLE``: it gets the CPU only while nothing else
wants it and loses it the instant a node wakes.  A virtual CPU that
idles is halted by the host and comes back slow — the same work then
costs more CPU time, by an amount that changes from minute to minute —
and a workload whose processes block (``vis-durable-tcp`` waits in
``fsync`` a third of the time; every set-up and recovery waits for
processes to start) pays that on every wake-up.  Ten alternating pairs
of runs, with and without: ``op_p50_ms`` 5.5 against 6.4 ms, spread 6 %
against 8 %; recovery rate spread 9 % against 38 %; set-up 11 % against
28 %.  It is the benchmark's ``idle=poll``: a property of the bench the
code is measured on, the same for every commit.

Usage: ``keep_awake.py PARENT_PID CPU[,CPU...]`` — exits by itself as
soon as ``PARENT_PID`` is no longer its parent.
"""

import os
import sys


def main(argv: list[str]) -> int:
    parent = int(argv[0])
    os.sched_setaffinity(0, {int(cpu) for cpu in argv[1].split(",")})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except (AttributeError, OSError):
        return 1  # at normal priority it would take the CPU from the nodes
    while os.getppid() == parent:
        for _ in range(50000):
            pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
