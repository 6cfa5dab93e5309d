"""One set-up in a fresh interpreter: import hlfspn, then build and compile
the workload's nets, then print one JSON line and exit.

Run by run.py:

    python3 perfbench/setup_probe.py <workload> <seed> <trace 0|1> <spawned>

where <spawned> is the caller's time.monotonic() just before it started
this process; the line reports setup_s from then to the compiled nets. With
trace 1 it also carries the per-layer split of the set-up.
"""

import contextlib
import json
import sys
import time
from pathlib import Path


def main(argv: list) -> int:
    workload, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    spawned = float(argv[3])
    src = Path(__file__).resolve().parent.parent / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import hlfspn
    import_s = time.perf_counter() - t0
    if not Path(hlfspn.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"hlfspn imported from {hlfspn.__file__}, not {src}")

    from hlfspn import hlf
    from hlfspn.spn import engine

    import tracing
    import workloads

    points = workloads.make_points(workload, seed)
    tracer = tracing.Tracer()
    with tracer if trace else contextlib.nullcontext():
        for point in points:
            engine.compile_net(hlf.build_hlf_net(point.cfg).net)
    line = {"setup_s": time.monotonic() - spawned, "import_s": import_s}
    if trace:
        line.update({
            "hlf.build_s": tracer.total("hlf.build"),
            "net.validate_calls": len(tracer.named("net.validate")),
            "net.validate_s": tracer.total("net.validate"),
            "engine.compile_s": tracer.total("engine.compile"),
        })
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
