"""Job server: one fresh interpreter that imports the CLI, then forks per job.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP threads
pinned to 1.  It pins itself, and so every job, to one CPU, runs
``import memsig.cli`` and prints one JSON "ready" line describing the
environment.  The time from spawn to that line is what every CLI call pays
before its first useful step.

Protocol (one JSON object per line):

- stdin:  ``{"argv": [...], "env": {...}, "trace": path-or-null, "limit_s": n}``
- stdout: ``{"rc": exit code, "wall_s": seconds, "maxrss_kb": kilobytes}``

Each job runs in a child forked from the freshly imported server, so no
in-process state (for example ``lru_cache`` contents) carries from one job to
the next.  The child calls ``memsig.cli.main(argv)`` with its stdout and
stderr sent to the job log, and exits with the code ``main`` returned.  With
``trace`` set the child wraps the program's functions (``tracer.py``) and
writes its spans to that path once, when the job ends.  A child still running
after ``limit_s`` seconds is killed by SIGALRM and reported as failed.
EOF on stdin ends the server.
"""

import os
import sys
import time

# On a shared 2-vCPU VM, jobs pinned to one CPU ran up to 1.6x faster, and
# with far less spread, than jobs the scheduler could place on either CPU.
# run.py times its machine-speed probe on the same CPU.
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import memsig.cli  # noqa: E402  (the import whose cost is the set-up time)

import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import traceback  # noqa: E402

EXIT_CRASH = 70


def _environment() -> dict:
    from memsig import rational

    return {
        "python": platform.python_version(),
        "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
        "scalar_backend": f"{rational.Rat.__module__}.{rational.Rat.__name__}",
    }


def _run_child(req: dict, log_fd: int) -> int:
    signal.alarm(req["limit_s"])
    os.dup2(log_fd, 1)
    os.dup2(log_fd, 2)
    os.environ.update(req["env"])
    tracer = None
    if req["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
    try:
        rc = memsig.cli.main(req["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else EXIT_CRASH
    except Exception:
        traceback.print_exc()
        rc = EXIT_CRASH
    sys.stdout.flush()
    sys.stderr.flush()
    if tracer is not None:
        tracer.write(req["trace"])
    return rc if isinstance(rc, int) else EXIT_CRASH


def main() -> int:
    log_path = sys.argv[1]
    out = sys.stdout
    out.write(json.dumps({"ready": True, "env": _environment()}) + "\n")
    out.flush()
    with open(log_path, "ab", buffering=0) as log:
        for line in sys.stdin:
            req = json.loads(line)
            t0 = time.perf_counter()
            pid = os.fork()
            if pid == 0:
                code = EXIT_CRASH
                try:
                    code = _run_child(req, log.fileno())
                finally:
                    os._exit(code)
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - t0
            rc = os.waitstatus_to_exitcode(status)
            out.write(json.dumps({"rc": rc, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}) + "\n")
            out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
