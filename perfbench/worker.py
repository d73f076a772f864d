"""Run one quenchfront CLI command in this interpreter and report on it.

Started by ``run.py`` as a fresh process for every operation, so no cache
or lazy state carries from one operation to the next.  The job is one JSON
argument: ``{"src": <dir holding the package>, "argv": [...] or null,
"trace": bool}``.  The last line of standard output is a JSON object with
the time the worker became ready (``time.monotonic``, which the parent's
clock shares), the command's exit code, wall time and peak resident memory,
and, when traced, the per-layer summary of its spans.  With ``argv`` null
the worker only sets up, which measures set-up time alone.
"""

import contextlib
import io
import json
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    from quenchfront import cli

    ready = time.monotonic()
    report = {"ready": ready, "rc": None, "op_s": None, "error": ""}
    if job["argv"] is not None:
        tracer = None
        if job["trace"]:
            import spans
            tracer = spans.install(spans.Tracer())
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                report["rc"] = cli.main(job["argv"])
        except Exception as exc:  # an escaped error is a failed operation
            report["error"] = f"{type(exc).__name__}: {exc}"
        report["op_s"] = time.perf_counter() - t0
        report["error"] = (report["error"] or err.getvalue()).strip()[-500:]
        if tracer is not None:
            report["layers"] = spans.summarize(tracer.spans)
            report["missing"] = tracer.missing
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
