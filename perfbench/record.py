"""Record the benchmark's reference data from the current library code.

    python3 perfbench/record.py fold   # writes perfbench/fold_base.json
    python3 perfbench/record.py cli    # writes perfbench/cli_reference.json

Run from the repository root.  Both files were recorded on the seed code
and are inputs of the benchmark, not results: re-record only when the
benchmark itself changes, never to make a later library version pass.

fold: the fold-family recursions of `fold-algebra`, drawn from a fixed
master seed, with their closure sizes.  A draw whose closure or
annihilator check fails, or whose peel disagrees with reduce_mod_r for
some power the seed may pick, is listed under "excluded" with what failed
instead of entering the workload, so the defect stays on record.

cli: one output row per (template, statement), from running the prelude
plus that statement alone.  Each row must come with exit code 0, and its
order and closure-size fields must match the template's closed forms.
"""

import json
import os
import sys

import rep

rep.import_selfsim()

import sessions  # noqa: E402
import workloads  # noqa: E402

def record_fold_base():
    """The first FOLD_COUNTS draws per arity whose operations all pass."""
    remaining = dict(workloads.FOLD_COUNTS["full"])
    recursions, excluded = [], []
    for m, exps, sigma in workloads.draw_fold_recursions():
        if not any(remaining.values()):
            break
        if not remaining[m]:
            continue
        system = workloads.fold_system(m, 9, 8, 8, exps, sigma)
        r = workloads.fold_annihilator(system, exps)
        g = system.generator()
        ops = workloads.fold_ops(g, r, 0)
        fails = [op.kind for op in ops[:2]
                 if not workloads.check(op, op.run())]
        fails += ["peel n=%d" % n for n in workloads.PEEL_POWERS if not
                  workloads.check(ops[2], workloads.peel_pair(g, n, r))]
        entry = {"m": m, "exponents": exps, "sigma": sigma}
        if fails:
            excluded.append(dict(entry, fails=fails))
            continue
        remaining[m] -= 1
        entry["states"] = len(workloads.closure.state_closure(
            [g], depth=6).states)
        recursions.append(entry)
    return {"recursions": recursions, "excluded": excluded}


def _field(row, dotted):
    for part in dotted.split("."):
        row = row[part]
    return row


def record_cli_reference():
    os.makedirs(sessions.WORKDIR, exist_ok=True)
    sessions.write_triples(rep.ROOT)
    path = os.path.join(sessions.WORKDIR, "record.sel")
    rows = {}
    problems = []
    for template, (_, slots) in sorted(sessions.TEMPLATES.items()):
        rows[template] = {}
        for slot in slots:
            for statement, closed in slot:
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(sessions.script_text(template, [statement]))
                code, out = sessions.run_script(path)
                if code != 0 or len(out) != 1:
                    problems.append("%s: %r exit %d, %d rows"
                                    % (template, statement, code, len(out)))
                    continue
                row = out[0]
                for key, want in closed.items():
                    if _field(row, key) != want:
                        problems.append("%s: %r %s = %r, closed form %r" % (
                            template, statement, key, _field(row, key), want))
                rows[template][statement] = row
    return {"rows": rows}, problems


def main(argv):
    if argv not in (["fold"], ["cli"]):
        print(__doc__, file=sys.stderr)
        return 2
    os.chdir(rep.ROOT)
    if argv == ["fold"]:
        data, target, problems = record_fold_base(), workloads.FOLD_BASE, []
    else:
        (data, problems), target = record_cli_reference(), sessions.REFERENCE
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    with open(target, "w", encoding="utf-8") as handle:
        json.dump(data, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print("wrote %s" % os.path.relpath(target, rep.ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
