#!/usr/bin/env python3
"""Run a verification campaign from a plain key=value config file.

Without arguments this runs the default campaign (all checks, q in {29, 43})
and writes one report JSON per check next to the config.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from dworkbench.harness import CampaignConfig, run_campaign


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", help="key=value campaign file; defaults baked in")
    ap.add_argument("--outdir", help="where to write per-check report JSON")
    args = ap.parse_args()

    if args.config:
        cfg = CampaignConfig.from_text(Path(args.config).read_text())
    else:
        cfg = CampaignConfig()
        cfg.validate()
    if args.outdir:
        cfg.outdir = args.outdir

    code, results = run_campaign(cfg)
    width = max(len(r.check) for r in results)
    for r in results:
        print(f"{r.check:{width}s}  {'PASS' if r.ok else 'FAIL'}  {r.runtime_ms:7d} ms")
    adjs = {k: v for r in results for k, v in r.adjudications.items() if v is not None}
    if adjs:
        print("adjudications:", ", ".join(f"{k}={v}" for k, v in sorted(adjs.items())))
    print("campaign:", "PASS" if code == 0 else "FAIL")
    return code


if __name__ == "__main__":
    sys.exit(main())
