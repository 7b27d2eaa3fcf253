#!/usr/bin/env python3
"""Write references.json: the observables each workload body must reproduce.

Run from the root of a source checkout, only at a commit whose results are
trusted (the references were made at the first commit that had this
benchmark). A change that alters results must not regenerate them to pass:

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run
import spans


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    ff = run.import_fastfronts()
    run.OUT_DIR.mkdir(exist_ok=True)
    refs = {}
    for name in run.WORKLOADS:
        config = run.workload_config(ff, name)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as scratch:
            body = run.execute(ff, name, config, spans.Tracer(ff, spans.RUN_TARGETS), scratch)
            obs = run.observe(ff, body)
        if "csv_rows" in obs:
            del obs["csv_rows"]
        refs[name] = obs
        print(name, obs["rows"][-1], file=sys.stderr)
    doc = {"provenance": run.provenance(), "workloads": refs}
    run.REFERENCES.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
