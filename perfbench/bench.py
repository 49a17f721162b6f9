"""One run of one workload, in the process ``run.py`` starts for it.

Each operation feeds the library the way ``pullup restructure
--multi-inheritance`` does: document bytes -> ``load_model`` ->
``restructure(EngineOptions(multi_inheritance=True))`` -> ``save_model`` ->
bytes, then rechecks the output by running ``restructure`` on it again. The
run sets up the workload, checks the fixtures and the checker itself, makes
one untimed warm-up sweep that checks every output independently, and then
makes timed rounds until ``--seconds`` would run out. With ``--trace 1`` each
round adds a traced sweep, and the run reports the per-layer metrics instead
of the end-to-end ones.

The last line of standard output is the JSON result; the full record (every
sample, the traced spans) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

import check
import tracing
import workloads
from pullup import engine, generate, modelfile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
# Set-up is short next to a round, so it is repeated within each round to give
# its median as many samples as the other metrics get.
SETUPS_PER_ROUND = 2
OPTIONS = engine.EngineOptions(multi_inheritance=True)
CORE_OPTIONS = engine.EngineOptions()
# Fixed inputs for the checker self-test; each offers a place for every
# corruption in ``check.CORRUPTIONS``.
SELF_TEST_SPECS = (("mixed", 12, 3), ("star", 6, 5))


def build(specs) -> list[bytes]:
    return [
        modelfile.save_model(
            generate.generate_model(
                generate.GeneratorSpec(generate.Family(family), scale, seed)
            )
        )
        for family, scale, seed in specs
    ]


def transform(doc: bytes, options=OPTIONS):
    # Module attribute lookups, so that the tracer's hooks are seen.
    model = modelfile.load_model(doc)
    report = engine.restructure(model, options)
    return modelfile.save_model(model), report


class Workload:
    """The models of one run, their reference outputs and what went wrong."""

    def __init__(self, docs: list[bytes]) -> None:
        self.docs = docs
        # Only the counts are kept: parsed copies would add the benchmark's
        # own memory to peak_rss_mb.
        self.elements = [check.parse(d).elements() for d in docs]
        self.reference: list[bytes | None] = [None] * len(docs)
        self.classes_added = [0] * len(docs)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def sweep(self, tracer: tracing.Tracer | None = None) -> list[tuple | None]:
        """Transform and recheck every model once.

        Per model: (transform seconds, recheck seconds, report), or None if
        the operation raised.
        """
        results = []
        for i in range(len(self.docs)):
            self.attempted += 1
            try:
                results.append(self._operation(i, tracer))
            except Exception as exc:  # a failed operation must not end the run
                self.failed += 1
                print(f"model {i} failed: {exc!r}", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                results.append(None)
        return results

    def _operation(self, i: int, tracer: tracing.Tracer | None):
        if tracer is not None:
            tracer.op += 1
            tracer.phase = "transform"
        gc.collect()
        start = perf_counter()
        out, report = transform(self.docs[i])
        transform_s = perf_counter() - start

        if self.reference[i] is None:
            self._verify(i, out, report)
            self.reference[i] = out
        elif out != self.reference[i]:
            self.problems.append(f"model {i}: a repeated transform gave other bytes")

        if tracer is not None:
            tracer.phase = "recheck"
        model = modelfile.load_model(out)
        gc.collect()
        start = perf_counter()
        again = engine.restructure(model, OPTIONS)
        recheck_s = perf_counter() - start
        if again.applications:
            self.problems.append(
                f"model {i}: recheck fired {len(again.applications)} rules"
            )
        if modelfile.save_model(model) != out:
            self.problems.append(f"model {i}: recheck changed the output")
        return transform_s, recheck_s, report

    def _verify(self, i: int, out: bytes, report) -> None:
        inp, got = check.parse(self.docs[i]), check.parse(out)
        self.problems += [f"model {i}: {v}" for v in check.check(inp, got)]
        added = len(got.synthesized) - len(inp.synthesized)
        if added != report.new_class_count:
            self.problems.append(
                f"model {i}: {added} synthesized classes in the output, "
                f"{report.new_class_count} in the report"
            )
        self.classes_added[i] = added


def distribution(values: list[float]) -> dict:
    """Quartiles and tail of per-model samples, with their count."""
    if len(values) < 2:
        return {"n": len(values)}
    pct = statistics.quantiles(values, n=100, method="inclusive")
    return {"n": len(values), "q1": pct[24], "median": statistics.median(values),
            "q3": pct[74], "p90": pct[89], "p99": pct[98], "max": max(values)}


def median_or_none(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def sweep_stats(work: Workload, results) -> dict:
    ok = [(i, r) for i, r in enumerate(results) if r is not None]
    transform_total = sum(r[0] for _, r in ok)
    return {
        "transform_s": [r[0] for _, r in ok],
        "elements_per_s": (
            sum(work.elements[i] for i, _ in ok) / transform_total if ok else None
        ),
        "recheck_s": sum(r[1] for _, r in ok) if ok else None,
        "passes": sum(r[2].iterations for _, r in ok),
        "firings": Counter(a.rule.value for _, r in ok for a in r[2].applications),
    }


def layer_values(stats: dict, layers: dict, hooked: list[str]) -> dict:
    """One traced round's per-layer values, by metric name (generate.* per set-up).

    A hooked function that was never called reads 0; one whose hook is
    missing has no values at all.
    """
    values = {
        f"{name}.{measure}": 0
        for name in hooked
        for measure in ("calls", "s", "self_s")
    }
    for (phase, name), value in layers.items():
        if phase == "transform":
            values[name] = value
        elif phase == "recheck":
            values["recheck." + name] = value
        elif phase == "setup" and name.startswith("generate."):
            values[name] = value / SETUPS_PER_ROUND
    values["engine.passes"] = stats["passes"]
    for kind in ("rule1", "rule2", "rule3", "multi-inherit-reuse", "multi-inherit-new"):
        values[f"rules.firings.{kind}"] = stats["firings"][kind]
    calls = values.get("rules.apply_shared_superclass_rule.calls")
    if calls:
        fired = values.setdefault("rules.apply_shared_superclass_rule.fired", 0)
        values["rules.apply_shared_superclass_rule.fired_ratio"] = fired / calls
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    tracer = tracing.Tracer() if args.trace else None

    run_start = perf_counter()
    specs = workloads.specs(args.workload, args.seed)
    gc.collect()
    start = perf_counter()
    docs = build(specs)
    setup_s = [perf_counter() - start]  # the first of several set-ups
    phase_s = {"setup": perf_counter() - run_start}

    try:
        problems = check.check_fixtures(
            ROOT / "fixtures", lambda d: transform(d, CORE_OPTIONS)[0]
        )
        problems += check.self_test(
            [(d, transform(d)[0]) for d in build(SELF_TEST_SPECS)]
        )
    except Exception as exc:  # report a broken program, do not hide the run
        problems = [f"fixture or self-test run failed: {exc!r}"]

    phase_s["checker"] = perf_counter() - run_start - sum(phase_s.values())
    work = Workload(docs)
    # The benchmark's own long-lived objects (input documents) stay
    # out of every later collection, so gc.collect() before an operation and
    # the collections inside it cost what they would in a process that holds
    # one model.
    gc.collect()
    gc.freeze()
    work.sweep()  # warm-up: reference outputs and the independent checks

    # Timed rounds. Each makes one untraced sweep, with --trace 1 one traced
    # sweep, and more set-ups, so that the set-up samples are spread over the
    # run like the others rather than bunched at its start.
    phase_s["warm-up"] = perf_counter() - run_start - sum(phase_s.values())
    untraced, traced, layer_sweeps, kept_spans = [], [], [], None
    durations = []
    start = perf_counter()
    while True:
        begun = perf_counter()
        untraced.append(sweep_stats(work, work.sweep()))
        if tracer is not None:
            tracer.install()
            results = work.sweep(tracer)
            tracer.phase = "setup"
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            again = perf_counter()
            rebuilt = build(specs)
            setup_s.append(perf_counter() - again)
            if rebuilt != docs:
                problems.append("set-up gave other documents the second time")
            del rebuilt
        if tracer is not None:
            tracer.uninstall()
            spans, counts = tracer.take()
            kept_spans = kept_spans or spans
            stats = sweep_stats(work, results)
            traced.append(stats)
            layer_sweeps.append(
                layer_values(stats, tracing.summarize(spans, counts), tracer.hooked)
            )
        durations.append(perf_counter() - begun)
        if perf_counter() - start + statistics.mean(durations) > args.seconds:
            break

    phase_s["timed"] = perf_counter() - start
    samples = [t for s in untraced for t in s["transform_s"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "models": len(docs),
        "elements": sum(work.elements),
        "sweeps": len(untraced),
        "phase_s": phase_s,
        "setup_s": setup_s,
        "transform_s": [s["transform_s"] for s in untraced],
        "elements_per_s": [s["elements_per_s"] for s in untraced],
        "recheck_s": [s["recheck_s"] for s in untraced],
        "transform_dist": distribution(samples),
        "problems": work.problems + problems,
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_s),
            "transform_s": median_or_none(samples),
            "elements_per_s": median_or_none(record["elements_per_s"]),
            "recheck_s": median_or_none(record["recheck_s"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "classes_added": sum(work.classes_added),
        }
    else:
        values = {
            name: median_or_none(s.get(name) for s in layer_sweeps)
            for name in set().union(*layer_sweeps)
        }
        traced_s = median_or_none(t for s in traced for t in s["transform_s"])
        values["trace.transform_s"] = traced_s
        if traced_s is not None and samples:
            values["trace.overhead_s"] = traced_s - statistics.median(samples)
        record["missing_hooks"] = tracer.missing
        record["broken_hooks"] = sorted(tracer.broken)
        record["layers"] = layer_sweeps

    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if values.get(m["name"]) is not None
    }
    record["metrics"] = metrics

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if kept_spans is not None:
        with gzip.open(OUT_DIR / f"{stem}-spans.jsonl.gz", "wt") as f:
            for s in kept_spans:
                f.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "phase", "name", "start", "end", "self"), s
                ))) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(docs)} models, "
          f"{record['elements']} elements, {len(untraced)} timed sweeps, "
          f"{len(samples)} transform samples")
    print("transform_s per model: " + " ".join(
        f"{k} {v:.4g}" for k, v in record["transform_dist"].items()))
    for m in wanted:
        if m["name"] in metrics:
            print(f"{m['name']} {metrics[m['name']]['value']:.6g} {m['unit']}")
        else:
            print(f"{m['name']} not measured")
    for hook in record.get("missing_hooks", []):
        print(f"missing hook: {hook}")
    for hook in record.get("broken_hooks", []):
        print(f"broken hook: {hook}")
    for p in record["problems"]:
        print(f"PROBLEM {p}")
    print(json.dumps({
        "correct": not record["problems"],
        "attempted": work.attempted,
        "failed": work.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
