"""Record the values the output checks compare against, for every input variant.

For frames256, the sha256 of each format's generation-0 frame; for
fate_rpent, the analyze verdict, the sweep's verdict sequence and the
generations the engine steps per iteration. Rerun only when the program's
behaviour is meant to change:

    PYTHONPATH=src python3 benchmarks/record.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import warnings
from pathlib import Path

import checks
import gen
import workload

HERE = Path(__file__).resolve().parent


def main() -> None:
    warnings.filterwarnings("ignore", message="live amplitude", category=RuntimeWarning)
    tracer = workload.install_tracer()
    work = HERE / "_work" / "record"
    expected = {}
    for v in range(gen.VARIANTS):
        shutil.rmtree(work, ignore_errors=True)
        entry = {}
        inputs = gen.write_inputs("frames256", v, work / "in")
        p = workload.plan("frames256", v, inputs, work, {})
        for inv in p.invocations:
            if workload.invoke(inv, None)[0] != 0:
                raise SystemExit(f"{inv.argv} failed")
        entry["gen0_sha256"] = {
            fmt: hashlib.sha256((inv.outdir / checks.frame_names(suffix, 0)[0]).read_bytes()).hexdigest()
            for inv, (fmt, suffix) in zip(p.invocations, workload.FORMATS.items())
        }
        inputs = gen.write_inputs("fate_rpent", v, work / "in")
        p = workload.plan("fate_rpent", v, inputs, work, {})
        outs = []
        for inv in p.invocations:
            rc, out = workload.invoke(inv, None)
            if rc != 0:
                raise SystemExit(f"{inv.argv} exited with {rc}")
            outs.append(out)
        entry["analyze"] = json.loads(outs[0])["verdict"]
        entry["sweep"] = checks.sweep_verdicts(outs[1])
        entry["generations"] = sum(
            s[5]["generations"] for s in tracer.spans if s[2] == "analysis.classify"
        )
        tracer.spans.clear()
        expected[str(v)] = entry
        print(v, entry["analyze"], entry["sweep"], entry["generations"], flush=True)
    workload.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
