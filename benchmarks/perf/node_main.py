"""Entry script of a benchmark node process.

``PerfCluster`` starts nodes through this file instead of
``python -m repro serve``.  It names the benchmark's behaviours in the
cluster registry, optionally (``--perf-trace``) wraps every layer in
span recorders — installed but switched off until the harness's control
actor turns them on — and then hands the untouched remainder of the
argument list to the stock ``serve_main``.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    from repro.net.cluster import serve_main

    import harness
    import spans

    recorder = spans.Recorder()
    if "--perf-trace" in argv:
        argv = [arg for arg in argv if arg != "--perf-trace"]
        harness.install_spans(recorder)
    harness.register_behaviors(recorder)
    return serve_main(argv)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
