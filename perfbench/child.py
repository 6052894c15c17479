"""One oodkit CLI invocation, as the benchmark spawns it.

    python child.py REPORT_JSON {plain|traced} VERB [ARGS...]

Imports ``oodkit.cli``, notes the ``time.perf_counter`` reading at which the
CLI is ready to dispatch (a system-wide monotonic clock on Linux, so the
parent can subtract its spawn time), then runs ``oodkit.cli.main``. In
``traced`` mode the wrappers of ``tracing.py`` are installed after the ready
point and ``cli.main`` runs as the root span ``cli.verb``. The report is
written when the verb returns.
"""

import json
import sys
import time


def main() -> int:
    report_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import oodkit.cli

    ready = time.perf_counter()
    report = {"ready": ready, "oodkit_file": oodkit.cli.__file__}
    cli_main = oodkit.cli.main
    if mode == "traced":
        import tracing

        recorder = tracing.Recorder()
        report["missing_targets"] = tracing.install(recorder)
        report["spans"] = recorder.spans
        cli_main = recorder.wrap("cli.verb", cli_main)
    try:
        return cli_main(argv)
    finally:
        with open(report_path, "w") as f:
            json.dump(report, f)


if __name__ == "__main__":
    sys.exit(main())
