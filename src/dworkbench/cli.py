"""Command-line front end.

Subcommand groups mirror the library layout: char, weights, hyper, dwork,
signs, verify.  Exit codes: 0 pass, 1 check failure, 2 usage or config
error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .characters import AddChar, MultChar, gauss_sum
from .dwork import DworkFiber, count_points, eigentrace_all_t, eigentrace_charsum
from .errors import BadT, ConfigError, WorkbenchError
from .finitefield import build_field
from .harness import (
    CampaignConfig,
    check_det_oracle,
    check_signs,
    katz_check,
    run_campaign,
    validate_n3,
)
from .hypergeometric import HyperSpec, trad_trace_conv, trad_trace_naive, verify_det_hcan
from .weights import build_v, hyper_data


def _cyclo_row(t: int, value) -> dict:
    return {"t": t, "value": value.to_json(), "abs2": value.abs2()}


def _cmd_char_gauss(args) -> int:
    q = args.q
    field = build_field(q)
    if args.chi_order < 1 or (q - 1) % args.chi_order != 0:
        raise ConfigError(f"chi-order must be a positive divisor of q - 1 = {q - 1}")
    j = ((q - 1) // args.chi_order) * args.chi_exp
    chi = MultChar(field, j)
    g = gauss_sum(AddChar(field), chi)
    z = g.embed()
    if args.json:
        out = {"q": q, "chi_order": args.chi_order, "chi_exp": args.chi_exp,
               "value": g.to_json(), "embedding": [z.real, z.imag]}
        print(json.dumps(out, sort_keys=True))
    else:
        print(f"g(psi, chi) = {g}")
        print(f"embedding   = {z:.10g}")
    return 0


def _cmd_weights(args) -> int:
    v = build_v(args.n, args.N)
    chis, rhos = hyper_data(v)
    out = {
        "v": list(v.entries),
        "s_chi": list(chis),
        "s_rho": list(rhos),
        "rank": len(chis),
    }
    if args.action == "build-v" and not args.json:
        print(list(v.entries))
    else:
        print(json.dumps(out, sort_keys=True))
    return 0


def _cmd_hyper_trace(args) -> int:
    field = build_field(args.q)
    spec = HyperSpec.from_label(field, build_v(args.n, args.N))
    rows = []
    if args.method == "naive":
        ts = [args.t] if args.t is not None else list(range(2, args.q))
        for t, val in zip(ts, trad_trace_naive(spec, ts, E_degree=args.E)):
            rows.append(_cyclo_row(t, val))
    else:
        table = trad_trace_conv(spec, E_degree=args.E)
        items = table.items() if args.t is None else [(args.t, table.value_at(args.t))]
        for t, val in items:
            rows.append(_cyclo_row(t, val))
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for r in rows:
            print(f"t={r['t']:4d}  abs2={r['abs2']:.6f}")
    return 0


def _cmd_dwork_trace(args) -> int:
    field = build_field(args.q)
    v = build_v(args.n, args.N)
    if args.t == "all":
        table = eigentrace_all_t(field, args.N, v)
        memo: dict = {}  # the fibers share their label's strata
        rows = [table[t].to_json(memo) for t in sorted(table)]
    else:
        try:
            fiber = DworkFiber(field, args.N, int(args.t))
        except ValueError:
            raise BadT(f"t must be an integer or 'all', not {args.t!r}") from None
        rows = [eigentrace_charsum(v, fiber).to_json()]
    if args.json:
        print(json.dumps(rows, sort_keys=True))
    else:
        for r in rows:
            print(f"t={r['t']}: {r['value']['coeffs']}")
    return 0


def _cmd_dwork_count(args) -> int:
    field = build_field(args.q)
    fiber = DworkFiber(field, args.N, args.t)
    n = count_points(fiber, args.ext)
    print(n)
    return 0


def _cmd_signs(args) -> int:
    res = check_signs(ls=(args.l,), count=args.count, seed=args.seed)
    if args.json:
        print(json.dumps(res.to_json(), sort_keys=True))
    else:
        r = res.rows[0]
        print(f"l={args.l}: sign law {'ok' if r['sign_law'] else 'FAIL'}, "
              f"det pairing {'ok' if r['det_pairing_minus_one'] else 'FAIL'}")
    return 0 if res.ok else 1


def _cmd_verify(args) -> int:
    if args.action == "katz":
        res = katz_check(args.n, args.N, args.q)
        if args.json:
            res.write(args.json)
        lam = f" lambda={res.lam}" if res.lam is not None else ""
        print(f"katz n={args.n} N={args.N} q={args.q}: "
              f"{'PASS' if res.ok else 'FAIL'} orientation={res.orientation}{lam}")
        return 0 if res.ok else 1
    if args.action == "n3":
        res = validate_n3(args.q)
        if args.json:
            res.write(args.json)
        print(f"n3 q={args.q}: {'PASS' if res.ok else 'FAIL'}")
        return 0 if res.ok else 1
    if args.action == "det-trad":
        res = check_det_oracle(q=args.q, k=args.k, seed=args.seed)
        print(f"det-trad q={args.q} k={args.k}: {'PASS' if res.ok else 'FAIL'}")
        return 0 if res.ok else 1
    if args.action == "det-hcan":
        r = verify_det_hcan(args.n, args.N, args.q)
        ok = r["exponent"] in ("half", "full") and r["point_independent"]
        print(f"det-hcan n={args.n} N={args.N} q={args.q}: "
              f"{'PASS' if ok else 'FAIL'} exponent={r['exponent']}")
        return 0 if ok else 1
    # verify all
    with open(args.config) as fh:
        cfg = CampaignConfig.from_text(fh.read())
    code, results = run_campaign(cfg)
    for r in results:
        print(f"{r.check:16s} {'PASS' if r.ok else 'FAIL'}  ({r.runtime_ms} ms)")
    print(f"campaign: {'PASS' if code == 0 else 'FAIL'}")
    return code


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dworkbench", description=__doc__)
    sub = p.add_subparsers(dest="group", required=True)

    g = sub.add_parser("char", help="character sums").add_subparsers(dest="action", required=True)
    gauss = g.add_parser("gauss", help="one Gauss sum, exactly")
    gauss.add_argument("--q", type=int, required=True)
    gauss.add_argument("--chi-order", type=int, required=True)
    gauss.add_argument("--chi-exp", type=int, default=1)
    gauss.add_argument("--json", action="store_true")
    gauss.set_defaults(fn=_cmd_char_gauss)

    w = sub.add_parser("weights", help="labels and their character data").add_subparsers(dest="action", required=True)
    for name in ("build-v", "hyper-data"):
        wp = w.add_parser(name)
        wp.add_argument("--n", type=int, required=True)
        wp.add_argument("--N", type=int, required=True)
        wp.add_argument("--json", action="store_true")
        wp.set_defaults(fn=_cmd_weights, action=name)

    h = sub.add_parser("hyper", help="hypergeometric traces").add_subparsers(dest="action", required=True)
    ht = h.add_parser("trace")
    ht.add_argument("--q", type=int, required=True)
    ht.add_argument("--n", type=int, required=True)
    ht.add_argument("--N", type=int, required=True)
    ht.add_argument("--method", choices=("naive", "conv"), required=True)
    ht.add_argument("--t", type=int)
    ht.add_argument("--E", type=int, default=1, choices=(1, 2))
    ht.add_argument("--json", action="store_true")
    ht.set_defaults(fn=_cmd_hyper_trace)

    d = sub.add_parser("dwork", help="family eigentraces and counts").add_subparsers(dest="action", required=True)
    dt = d.add_parser("trace")
    dt.add_argument("--N", type=int, required=True)
    dt.add_argument("--n", type=int, required=True)
    dt.add_argument("--q", type=int, required=True)
    dt.add_argument("--t", default="all")
    dt.add_argument("--json", action="store_true")
    dt.set_defaults(fn=_cmd_dwork_trace)
    dc = d.add_parser("count")
    dc.add_argument("--N", type=int, required=True)
    dc.add_argument("--q", type=int, required=True)
    dc.add_argument("--t", type=int, required=True)
    dc.add_argument("--ext", type=int, default=1)
    dc.set_defaults(fn=_cmd_dwork_count)

    s = sub.add_parser("signs", help="pairing sign laws").add_subparsers(dest="action", required=True)
    sc = s.add_parser("check")
    sc.add_argument("--l", type=int, required=True)
    sc.add_argument("--seed", type=int, default=0)
    sc.add_argument("--count", type=int, default=100)
    sc.add_argument("--json", action="store_true")
    sc.set_defaults(fn=_cmd_signs)

    v = sub.add_parser("verify", help="verification campaigns").add_subparsers(dest="action", required=True)
    vk = v.add_parser("katz")
    vk.add_argument("--n", type=int, required=True)
    vk.add_argument("--N", type=int, required=True)
    vk.add_argument("--q", type=int, required=True)
    vk.add_argument("--json", metavar="OUT")
    vk.set_defaults(fn=_cmd_verify, action="katz")
    vn = v.add_parser("n3")
    vn.add_argument("--q", type=int, required=True)
    vn.add_argument("--json", metavar="OUT")
    vn.set_defaults(fn=_cmd_verify, action="n3")
    vt = v.add_parser("det-trad")
    vt.add_argument("--q", type=int, required=True)
    vt.add_argument("--k", type=int, default=2)
    vt.add_argument("--seed", type=int, default=0)
    vt.set_defaults(fn=_cmd_verify, action="det-trad")
    vh = v.add_parser("det-hcan")
    vh.add_argument("--q", type=int, required=True)
    vh.add_argument("--n", type=int, required=True)
    vh.add_argument("--N", type=int, required=True)
    vh.set_defaults(fn=_cmd_verify, action="det-hcan")
    va = v.add_parser("all")
    va.add_argument("--config", required=True)
    va.set_defaults(fn=_cmd_verify, action="all")

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except WorkbenchError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
