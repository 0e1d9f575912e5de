"""One traced CLI process, as the cli-oneshot traced run starts it:

    python3 perfbench/cli_child.py OUT.json COMMAND MANIFEST [options]

Times the import of maninmaps.cli, wraps the library's public functions and
the JSON rendering, runs the command exactly as `python -m maninmaps.cli`
would (same stdout, same exit code), then writes the spans and their
totals to OUT.json (one JSON line), then the seconds that took (a second
line).
"""

import json
import sys
import time

out_path = sys.argv[1]
t0 = time.perf_counter()
from maninmaps import cli  # noqa: E402

import_s = time.perf_counter() - t0

import spans  # noqa: E402

tracer = spans.Tracer()
spans.install(tracer)
_dumps = json.dumps


def _render(*args, **kwargs):
    if tracer.job is None:
        return _dumps(*args, **kwargs)
    return tracer.span("cli.render", _dumps, args, kwargs)


json.dumps = _render
tracer.job = 0
try:
    code = cli.main(sys.argv[2:])
finally:
    tracer.job = None
    json.dumps = _dumps
sys.stdout.flush()
t_dump = time.perf_counter()
doc = tracer.to_doc()
doc.update(totals=tracer.totals(), counters=tracer.counters(), import_s=import_s)
with open(out_path, "w") as fh:
    fh.write(json.dumps(doc) + "\n")
    # second line: the parent takes this off the process wall time
    fh.write(json.dumps({"dump_s": time.perf_counter() - t_dump}) + "\n")
sys.exit(code)
