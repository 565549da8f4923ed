"""One benchmark run in a fresh interpreter.

Reads a JSON spec on stdin, runs its CLI calls through ``stirling.cli.run``
one after another, and writes one JSON object to stdout: the time the
import of ``stirling.cli`` returned, each call's exit code, time and output
summary, spans when traced, probe figures when asked for, and this
process's own peak RSS.

A fresh interpreter per run keeps the oracle's ``lru_cache`` and every
calculator memo cold, and makes ``ru_maxrss`` belong to this run alone.
The address-space limit is set here, on this process only, so an
oversized call fails with MemoryError instead of exhausting the machine.

Spec keys: ``ops`` (list of ``{"argv": [...], "keep": [line, ...] | null}``),
``trace`` (bool), ``probe`` (null or ``{"seed": n}``).

Only modules the interpreter has loaded at start-up are imported at the top:
the harness's own imports wait until ``import stirling.cli`` has returned,
so ``setup_s`` holds nothing of this harness.
"""

import os
import sys
import time

MEMORY_LIMIT_BYTES = 1 << 30

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Probe sizes. READ_ROWS and POLY_MAX match catalog-sweep's --max, BUILD_ROWS
# sits in point-query's range of n.
READ_ROWS = 64
READS_PER_BATCH = 20_000
READ_BATCHES = 5
BUILD_ROWS = 400
BUILD_TRIALS = 3
POLY_MAX = 64
POLY_PASSES = 3


class CountingSink:
    """Write-only text stream that keeps no output: it counts bytes and
    newlines, hashes the bytes, and keeps only the lines it was asked for
    (every line when ``keep`` is None)."""

    CHUNK = 1 << 20

    def __init__(self, keep=None):
        import hashlib

        self.keep = None if keep is None else sorted(set(keep))
        self._cursor = 0
        self.nbytes = 0
        self.lines = 0
        self.sha256 = hashlib.sha256()
        self.kept = {}
        self._partial = []

    def write(self, text):
        for start in range(0, len(text), self.CHUNK):
            piece = text[start:start + self.CHUNK]
            data = piece.encode()
            self.nbytes += len(data)
            self.sha256.update(data)
            self._track(piece)
        return len(text)

    def flush(self):
        pass

    def _next_wanted(self):
        """The first kept line at or after the current one, or None; lines
        only advance, so a cursor into ``keep`` follows them."""
        while self._cursor < len(self.keep) and self.keep[self._cursor] < self.lines:
            self._cursor += 1
        return self.keep[self._cursor] if self._cursor < len(self.keep) else None

    def _track(self, piece):
        pos = 0
        while pos < len(piece):
            if self.keep is None or self._next_wanted() == self.lines:
                end = piece.find("\n", pos)
                if end < 0:
                    self._partial.append(piece[pos:])
                    return
                self._partial.append(piece[pos:end])
                self.kept[self.lines] = "".join(self._partial)
                self._partial = []
                self.lines += 1
                pos = end + 1
                continue
            target = self._next_wanted()
            newlines = piece.count("\n", pos)
            if target is None or self.lines + newlines < target:
                self.lines += newlines
                return
            for _ in range(target - self.lines):
                pos = piece.index("\n", pos) + 1
            self.lines = target

    def summary(self):
        kept = dict(self.kept)
        if self._partial:
            kept[self.lines] = "".join(self._partial)
        return {
            "bytes": self.nbytes,
            "lines": self.lines,
            "sha256": self.sha256.hexdigest(),
            "kept": {str(line): text for line, text in kept.items()},
        }


class Tracer:
    """Spans around calls into the package's public callables.

    For each span name it sums the inclusive time, the self time (inclusive
    minus the direct child spans), the call count and an optional figure
    taken from the result. Figures are collected per CLI call.
    """

    def __init__(self):
        self.stack = []
        self.spans = {}

    def take(self):
        spans, self.spans = self.spans, {}
        return spans

    def wrap(self, fn, name, figure=None):
        def traced(*args, **kwargs):
            span = name(args) if callable(name) else name
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += elapsed
                record = self.spans.setdefault(span, [0.0, 0.0, 0, 0])
                record[0] += elapsed
                record[1] += elapsed - children
                record[2] += 1
            if figure is not None:
                record[3] += figure(result)
            return result

        return traced


def install_tracer(tracer):
    """Wrap the public callables by attribute, in every module of the
    package that binds them, so calls through any import path are seen."""
    import stirling.cli
    from stirling import engine, exact, identities, oracle

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "stirling"]

    def patch_function(module, attr, name, figure=None):
        original = getattr(module, attr)
        traced = tracer.wrap(original, name, figure)
        for mod in modules:
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)

    patch_function(stirling.cli, "run", "cli.run")
    patch_function(
        identities, "run_identity",
        lambda args: f"identities.{args[0].value}",
        lambda report: len(report.counterexamples),
    )
    patch_function(oracle, "count_permutations_by_cycles", "oracle.count_permutations_by_cycles")
    patch_function(oracle, "count_set_partitions", "oracle.count_set_partitions")
    patch_function(exact, "dump_json", "exact.dump_json")

    calculator = engine.StirlingCalculator
    for attr in ("value", "triangle", "first_from_second", "second_from_first"):
        setattr(calculator, attr, tracer.wrap(getattr(calculator, attr), f"engine.{attr}"))
    for attr in ("to_csv", "to_json"):
        setattr(engine.Triangle, attr,
                tracer.wrap(getattr(engine.Triangle, attr), f"engine.{attr}", len))


def run_op(cli, argv, keep):
    import gc

    out = CountingSink(keep)
    err = CountingSink()
    error = None
    code = None
    gc.collect()
    sys.stdout, sys.stderr = out, err
    start = time.perf_counter()
    try:
        code = cli.run(argv)
    except MemoryError:
        error = "memory limit reached"
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
    result = out.summary()
    stderr = err.summary()["kept"]
    result.update(
        exit=code,
        seconds=elapsed,
        error=error,
        stderr="\n".join(stderr[k] for k in sorted(stderr, key=int)),
    )
    return result


def run_probes(seed):
    """Layer probes that in-situ spans cannot give: ``identities._SWEEPS``
    holds the poly builders in closures and the sweeps read entries through
    the private ``_value``, so neither can be wrapped by attribute."""
    import random
    from statistics import median

    from stirling.engine import StirlingCalculator, StirlingKind
    from stirling.poly import (
        basis_poly_first,
        basis_poly_second,
        residual_poly_first,
        residual_poly_second,
    )

    rng = random.Random(seed)
    stored = (StirlingKind.FIRST_SIGNED, StirlingKind.SECOND)
    errors = []

    warm = StirlingCalculator()
    for kind in stored:
        warm.value(kind, READ_ROWS, 1)
    kinds = list(StirlingKind)
    reads = []
    for _ in range(READS_PER_BATCH):
        n = rng.randint(1, READ_ROWS)
        reads.append((rng.choice(kinds), n, rng.randint(1, n)))
    value = warm.value
    read_ns = []
    for _ in range(READ_BATCHES):
        start = time.perf_counter()
        for kind, n, m in reads:
            value(kind, n, m)
        read_ns.append((time.perf_counter() - start) / len(reads) * 1e9)

    rows_per_s = []
    for _ in range(BUILD_TRIALS):
        for kind in stored:
            fresh = StirlingCalculator()
            start = time.perf_counter()
            fresh.value(kind, BUILD_ROWS, 1)
            rows_per_s.append(BUILD_ROWS / (time.perf_counter() - start))

    for kind in stored:
        warm.value(kind, POLY_MAX, 1)
    poly_s = []
    for _ in range(POLY_PASSES):
        start = time.perf_counter()
        built = [
            (m, basis_poly_first(m, warm), basis_poly_second(m, warm),
             residual_poly_first(m, warm), residual_poly_second(m, warm))
            for m in range(1, POLY_MAX + 1)
        ]
        poly_s.append(time.perf_counter() - start)
    for m, basis_first, basis_second, residual_first, residual_second in built:
        monomial = (0,) * m + (1,)
        if basis_first.coeffs != monomial or basis_second.coeffs != monomial:
            errors.append(f"basis polynomial {m} is not x^{m}")
        if residual_first.coeffs or residual_second.coeffs:
            errors.append(f"residual polynomial {m} is not zero")

    return {
        "engine.read_ns": median(read_ns),
        "engine.rows_per_s": median(rows_per_s),
        "poly.build_s": median(poly_s),
        "errors": errors,
    }


def main():
    sys.path.insert(0, SRC)
    import stirling.cli

    imported = time.monotonic()
    import json
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT_BYTES, MEMORY_LIMIT_BYTES))
    if not os.path.abspath(stirling.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"stirling.cli was imported from {stirling.cli.__file__}, not {SRC}")

    spec = json.load(sys.stdin)
    tracer = None
    if spec.get("trace"):
        tracer = Tracer()
        install_tracer(tracer)

    results = []
    for op in spec.get("ops", []):
        result = run_op(stirling.cli, op["argv"], op.get("keep"))
        if tracer is not None:
            result["spans"] = tracer.take()
        results.append(result)
    maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {"imported": imported, "maxrss_kib": maxrss_kib, "results": results}
    if spec.get("probe") is not None:
        report["probe"] = run_probes(spec["probe"]["seed"])
    json.dump(report, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
