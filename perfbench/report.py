"""`run.py --report`: every workload, untraced then traced, in one command.

Prints each end-to-end metric by name with its unit, the failure ratio with
its base, the verify accept and reject medians with their sample counts,
every per-layer metric with the tracing overhead, and the readings that
confirm the workload design.  `verify` uses the full tamper set here,
including the `reasons` and `seed` edits that verify does not bind yet, so
its failure ratio shows that gap.  The last line is the whole result as
JSON.
"""

import json
import random
import tempfile

import run
import tamper


def main(args):
    ref = run.load_reference()
    rng = random.Random(args.seed)
    result, problems = {}, []
    run.WORK.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
            runner = run.Runner(workdir)
            run.setup_probe(runner, workload, ref)
            e2e, ops, failed, extra = run.end_to_end(
                runner, workload, ref, rng, tamper.KINDS, args.seconds)
        with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
            layers, passes, trace_problems = run.traced(
                run.Runner(workdir), workload, ref, rng, tamper.BOUND_KINDS,
                args.seconds)
        problems += ["%s: %s" % (workload, p) for p in trace_problems]
        if sum(p["failed"] for p in passes):
            problems.append("%s: failed ops in the traced run" % workload)
        entry = {"e2e": {k: v["value"] for k, v in e2e.items()},
                 "ops": ops, "failed": failed, "fail_ratio": failed / ops,
                 "layers": {k: v["value"] for k, v in layers.items()},
                 "traced_passes": sum(bool(p["traces"]) for p in passes)}
        print("== %s" % workload)
        for name, unit in run.END_TO_END:
            print("  %-12s %12.4f %s" % (name, e2e[name]["value"], unit))
        print("  %-12s %12.4f (%d failed of %d ops)"
              % ("fail_ratio", failed / ops, failed, ops))
        if workload == "verify":
            unbound = sum(k in tamper.UNBOUND_KINDS for k in extra["kinds"])
            entry["unbound_edits"] = unbound
            entry["tampered"] = len(extra["kinds"])
            for name in ("accept_p50_s", "reject_p50_s"):
                value, n = extra[name]
                entry[name] = value
                print("  %-12s %12.4f s (n=%d)" % (name, value, n))
            print("  tampered: %d, of which reasons/seed edits: %d; those are"
                  " %d of %d ops (%.4f)" % (len(extra["kinds"]), unbound,
                                             unbound, ops, unbound / ops))
            for f in extra["failures"]:
                print("  failed: %s" % f)
            if failed != unbound:
                problems.append("verify: %d failed ops but %d reasons/seed edits"
                                % (failed, unbound))
        elif failed:
            problems.append("%s: %d failed ops" % (workload, failed))
        for name, unit, _ in run.PER_LAYER:
            print("  %-44s %14.6g %s" % (name, entry["layers"].get(name, 0), unit))
        result[workload] = entry

    def layer(w, name):
        return result[w]["layers"].get(name, 0)

    checks = [
        ("localpoints.witness_search.calls is 0 on verify",
         layer("verify", "localpoints.witness_search.calls") == 0),
        ("weil.dset.s under 1% of search_q3.wall_s",
         layer("search_q3", "weil.dset.s") < 0.01 * result["search_q3"]["e2e"]["wall_s"]),
        ("weil.dset.s at least a quarter of table.wall_s",
         layer("table", "weil.dset.s") >= 0.25 * result["table"]["e2e"]["wall_s"]),
    ]
    print("== design checks")
    for label, ok in checks:
        print("  [%s] %s" % ("ok" if ok else "FAIL", label))
        if not ok:
            problems.append(label)
    for p in problems:
        print("problem: %s" % p)
    print(json.dumps({"ok": not problems, "seed": args.seed,
                      "seconds": args.seconds, "workloads": result}))
    return 0 if not problems else 1
