"""Child-process entry points for the benchmark; run.py starts these.

  child.py setup WORKLOAD       time import + default_registry() + one warm-up op,
                                then time the host-speed calibration loop
  child.py cli-probe            time `import ellid.cli` and check-all in-process
  child.py cli-traced DUMP ARGS run the CLI under the tracer; write its spans to DUMP

setup and cli-probe print one JSON object; cli-traced prints the CLI's own
output, so the parent can check it byte for byte.  The bench modules are
imported only after the timed import of ellid, so that their standard-library
imports do not make ellid's look cheaper.
"""

import io
import json
import os
import sys
import time
from contextlib import redirect_stdout

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))


def in_process_cli(ell) -> None:
    """check-all in this process, its output captured and dropped."""
    from workloads import CHECK_ALL_ARGS
    with redirect_stdout(io.StringIO()):
        ell.cli.main(CHECK_ALL_ARGS)


def setup(workload: str) -> dict:
    t0 = time.perf_counter()
    import ellid.registry
    import ellid.reporting  # noqa: F401
    if workload == "cli_cold":
        import ellid.cli  # noqa: F401
    ellid.registry.default_registry()
    elapsed = time.perf_counter() - t0

    from workloads import DEFAULT_SEED, calibration_s, load, make
    ell = load(with_cli=workload == "cli_cold")
    t1 = time.perf_counter()
    if workload == "cli_cold":
        in_process_cli(ell)
    else:
        make(workload, ell, DEFAULT_SEED).warm_up()
    elapsed += time.perf_counter() - t1
    return {"setup_s": elapsed, "cal_s": calibration_s(), "ellid": ellid.__file__}


def cli_probe() -> dict:
    t0 = time.perf_counter()
    import ellid.cli
    t1 = time.perf_counter()
    from workloads import load
    t2 = time.perf_counter()
    in_process_cli(load(with_cli=True))
    t3 = time.perf_counter()
    return {"import_ms": (t1 - t0) * 1e3, "main_ms": (t3 - t2) * 1e3,
            "ellid": ellid.__file__}


def cli_traced(dump: str, argv: list) -> int:
    import tracer as tracing
    from workloads import load
    ell = load(with_cli=True)
    tr = tracing.Tracer()
    patches, _ = tracing.install(tr)
    tr.begin_op()
    try:
        rc = tr.span("op.cli_cold", ell.cli.main)(argv)
    finally:
        tracing.uninstall(patches)
    sys.stdout.flush()
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump(tr.dump(), fh)
    return rc


def main() -> int:
    mode = sys.argv[1]
    if mode == "cli-traced":
        return cli_traced(sys.argv[2], sys.argv[3:])
    result = setup(sys.argv[2]) if mode == "setup" else cli_probe()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
