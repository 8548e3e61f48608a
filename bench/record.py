"""Record the current commit's reports as the benchmark's references.

    python3 bench/record.py [--workload NAME ...]

Runs one repetition of each workload exactly as run.py does and merges the
parsed reports into bench/references.json, keyed by call label together
with the call's full argument list.  A reference whose arguments no longer
match the workload is ignored, and the benchmark then fails that call, so
changing a workload's budget means recording again.  Record only on the
commit whose results are the reference.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import child  # noqa: E402
from workloads import REFERENCES, WORKLOADS, call_argv, parse_output  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for name in args.workload or sorted(WORKLOADS):
        rep = child(name, False, False, "record", "run", time.monotonic() + 600)
        for call, out in zip(WORKLOADS[name], rep["outputs"]):
            if out["error"] is not None or out["status"] != 0:
                raise SystemExit(f"{name} {call.label}: {out['error'] or out['status']}")
            refs[call.label] = {"argv": " ".join(call_argv(call)),
                                "reports": parse_output(out["text"])}
        print(f"recorded {name}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
