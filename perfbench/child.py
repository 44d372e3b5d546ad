"""One CLI run in a fresh interpreter, timed from the inside.

Usage: python3 child.py RESULT_JSON MODE TRACE -- CLI_ARGS...

MODE is "full" (run the subcommand) or "setup" (stop once the scenario is
loaded: a set-up probe).  TRACE is 1 to record spans.  The run goes
through pyramid_eq.cli.main, so argument parsing, config loading and exit
codes are the program's own.  The result file holds time.monotonic()
marks (system-wide on Linux, so the parent can subtract its spawn time),
the exit code, this process's peak RSS and, when traced, the spans.
"""
import json
import os
import resource
import sys
import time


def main() -> int:
    result_path, mode, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]

    from pyramid_eq import cli

    tracer = None
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer
        tracer = Tracer(run_id=f"{os.getpid()}")
        tracer.install()

    marks = {}
    load = cli.load_scenario

    def load_scenario(*args, **kwargs):
        cfg = load(*args, **kwargs)
        marks["loaded"] = time.monotonic()
        return cfg

    cli.load_scenario = load_scenario
    if mode == "setup":
        cli.run_solve = cli.run_analysis = lambda *args, **kwargs: 0
    code = cli.main(cli_args)
    marks["done"] = time.monotonic()

    result = {
        "exit_code": code,
        "t_loaded": marks.get("loaded"),
        "t_done": marks["done"],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
