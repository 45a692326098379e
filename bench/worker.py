"""One benchmark workload process.

Started fresh by bench/run.py for every sample.  It imports the CLI,
notes the time it became ready, then runs the `dcm run` calls named in
its job through ``dcmethod.cli.main`` and prints one JSON line with the
wall time of each call, any error, the per-layer metrics of traced
calls and the process's peak resident memory.

    python3 bench/worker.py '<job json>'

The job is ``{"calls": [{"control": PATH, "workers": N, "trace": BOOL}],
"spans": PATH}``; spans of the last traced call are written to
``spans``.
"""

import json
import os
import resource
import sys
import time
import traceback

import dcmethod.cli as cli
from tracer import Tracer, layer_metrics, max_iter_default, self_times

READY = time.monotonic()


def _bytes_under(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_call(call, spans_path):
    argv = ["run", "--control", call["control"], "--workers", str(call["workers"])]
    tracer = Tracer() if call["trace"] else None
    main = cli.main
    if tracer:
        tracer.install()
        main = tracer.wrap(cli.main, "cli.main")
    result = {"rc": None, "error": None}
    try:
        start = time.perf_counter()
        result["rc"] = main(argv)
        result["seconds"] = time.perf_counter() - start
    except Exception:  # a failed call is reported, not fatal
        result["error"] = traceback.format_exc()
    finally:
        if tracer:
            tracer.uninstall()
    if tracer and result["error"] is None:
        spans = tracer.dump()
        layers = layer_metrics(spans, tracer.counts, call["workers"],
                               max_iter_default())
        out_dir = os.path.join(os.path.dirname(call["control"]), "fit.out")
        layers["cli.bytes_written"] = _bytes_under(out_dir)
        result["layers"] = layers
        result["self_s"] = self_times(spans)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["peak_rss_mb"] = rss_kb / 1024.0
    return result


def main():
    job = json.loads(sys.argv[1])
    calls = [run_call(c, job["spans"]) for c in job["calls"]]
    print(json.dumps({"ready": READY, "calls": calls}))


if __name__ == "__main__":
    main()
