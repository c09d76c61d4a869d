"""One certified run, made through the calls the CLI makes.

    python3 perfbench/child.py SPEC.json RESULT.json

SPEC names the config, the swept tau values (empty for a single run) and
whether to trace.  The child times cli.load_config (setup_s) and
cli.execute or cli.sweep (run_s), then writes RESULT.  gradflow1d must be
importable from the checkout's src/ (the parent sets PYTHONPATH).
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import gradflow1d
    from gradflow1d import cli
    from gradflow1d.transport import ConfigurationError

    source = Path(gradflow1d.__file__).resolve()
    if not source.is_relative_to(Path(spec["src"]).resolve()):
        print(f"gradflow1d imported from {source}, not the checkout",
              file=sys.stderr)
        return 4

    recorder = absent = None
    if spec["trace"]:
        from tracing import Recorder, install, summarize
        recorder = Recorder()
        absent = install(recorder)

    setup_s = run_s = None
    checks = []
    t0 = time.perf_counter()
    try:
        cfg = cli.load_config(spec["config"])
        t1 = time.perf_counter()
        setup_s = t1 - t0
        checks = list(cfg.checks)
        if spec["sweep_tau"]:
            _, code = cli.sweep(cfg, "tau", spec["sweep_tau"])
        else:
            code = cli.execute(cfg)
        run_s = time.perf_counter() - t1
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        code = 2
    except Exception:  # the CLI's own boundary maps these to 3
        traceback.print_exc()
        code = 3

    result = {"exit_code": code, "setup_s": setup_s, "run_s": run_s,
              "checks": checks}
    if recorder is not None:
        result["trace"] = {**summarize(recorder.spans), "absent": absent}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
