"""Record the reference outputs the benchmark checks every run against.

    python3 perfbench/make_reference.py [certify|cli-solve|walk ...]

Runs every catalogue request once (and one certification) with the sbmpot
under ./src and writes perfbench/reference/<workload>.json.  The stored
references were made at commit 84ab6fa; regenerate them only when the
catalogue itself changes, never to absorb a changed output.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def make_catalogue_reference(workload, workdir):
    classes = workloads.catalogue(workload)
    workdir.mkdir(parents=True, exist_ok=True)
    for name, entries in classes.items():
        for k, entry in enumerate(entries):
            spec_path = workdir / "spec.json"
            spec_path.write_text(json.dumps(entry["spec"], sort_keys=True))
            argv = list(entry["argv"])
            out_path = workdir / "out.csv"
            if "{out}" in argv:
                argv[argv.index("{out}")] = str(out_path)
            elif argv[:2] == ["mc", "exit"]:
                # the per-path CSV gives the standard errors; stdout is the same
                argv += ["--out", str(out_path)]
            argv = argv[:2] + ["--spec", str(spec_path)] + argv[2:]
            rc, text = workloads.call_cli(argv)
            if rc != 0:
                raise SystemExit(f"{name}[{k}] failed with {rc}: {argv}")
            if argv[:2] == ["mc", "exit"]:
                expect = {"rc": rc, "diag": json.loads(text)}
                expect["se"] = compare.mc_standard_errors(expect["diag"], out_path)
            else:
                has_out = "{out}" in entry["argv"]
                expect = compare.observe(entry["argv"], rc, text, out_path if has_out else None)
            entry["expect"] = expect
            print(f"{name}[{k}] ok", flush=True)
    return {"workload": workload, "commit": "84ab6fa", "classes": classes}


def make_certify_reference():
    import sbmpot.verify as verify

    cfg = workloads.certify_config()
    report = verify.run_verify(cfg)
    return {
        "workload": "certify",
        "commit": "84ab6fa",
        "config": cfg.to_dict(),
        "digest": cfg.digest(),
        "passed": sum(c.passed for c in report.checks),
        "checks": compare.certify_observation(report),
    }


def main(argv):
    run.import_sbmpot()
    names = argv or list(workloads.WORKLOADS)
    workdir = run.OUT / "reference-work"
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    try:
        for name in names:
            if name == "certify":
                ref = make_certify_reference()
            else:
                ref = make_catalogue_reference(name, workdir)
            with open(workloads.REFERENCE_DIR / f"{name}.json", "w") as fh:
                json.dump(ref, fh, indent=1, sort_keys=True)
                fh.write("\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
