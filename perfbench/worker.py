"""One fresh process of the benchmark: set-up, then a round, the checks, or nothing.

    python3 worker.py MODE WORKLOAD SEED OUTDIR SRC SPAWNED [--trace]

MODE is ``round`` (run the workload through ``wgstokes.cli.main``),
``setup`` (set up only) or ``check`` (run checks.py on a round's output).
SPAWNED is run.py's ``time.monotonic()`` just before it started this
process, so ``setup_s`` covers interpreter start, the imports of numpy,
scipy, sympy and wgstokes, and ``get_case``.  The result is the last line
of standard output, one JSON object.
"""

import time  # noqa: I001  (first, so set-up is timed from here on)
import contextlib
import io
import json
import pathlib
import resource
import sys


def set_up(src, trace):
    """Import the stack and build the case data, as every CLI call does."""
    sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    import sympy  # noqa: F401
    import wgstokes
    import wgstokes.cli

    origin = pathlib.Path(wgstokes.__file__).resolve()
    if pathlib.Path(src).resolve() not in origin.parents:
        raise SystemExit(f"wgstokes imported from {origin}, not from {src}")
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(sys.modules)
    wgstokes.cases.get_case("taylor-trig")
    return tracer


def machine_facts():
    """Library versions, BLAS builds and their thread counts, as loaded here."""
    import ctypes

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    blas = {}
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.split()[-1]})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                blas[pathlib.Path(path).name] = getter()
                break
        else:
            blas[pathlib.Path(path).name] = None
    info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{info.get('name')} {info.get('version')}",
        "blas_threads": blas,
    }


def main(argv):
    mode, name, seed, outdir, src, spawned = argv[:6]
    trace = "--trace" in argv[6:]
    tracer = set_up(src, trace)
    setup_s = time.monotonic() - float(spawned)
    result = {"setup_s": setup_s}
    outdir = pathlib.Path(outdir)

    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if mode == "round":
        import wgstokes.cli

        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = wgstokes.cli.main(workload.argv(outdir / "study.csv"))
        end = time.perf_counter()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(
            wall_s=end - start,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            user_s=usage.ru_utime,
            sys_s=usage.ru_stime,
            exit_code=code,
        )
        (outdir / "stdout.txt").write_text(buf.getvalue())
        if tracer is not None:
            result["layers"] = tracer.layer_metrics(start, end)
            (outdir / "spans.json").write_text(json.dumps(tracer.spans, indent=0))
    elif mode == "check":
        import checks

        result["checks"], result["notes"] = checks.run_checks(workload, int(seed), outdir)
        result["machine"] = machine_facts()
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
