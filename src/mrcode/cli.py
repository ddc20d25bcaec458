"""Command-line interface: length construction, verification, generators,
benchmarks, and the bit codec.

Exit codes: 0 on success; 1 when `verify` finds a code that is not
optimal, not monotone or without the exclusion property (`verify_exclusion`,
run only on lengths of Kraft sum 1, the ones that make a full tree), or when
`bench` finds a code that is not optimal; 2 on every usage, parse or file
error, printed as one line ``mrcode: error: <file>: <reason>``.  The rules
an input must meet are the library's.  Weight files hold one positive
decimal integer per line; length files one integer per line, aligned with
the weight file.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from fractions import Fraction

from . import codec, generators
from .core import (CodeLengthProfile, ComparisonCounter, WeightList,
                   check_length_range, code_cost, distinct_length_count,
                   kraft_sum, monotone, verify_exclusion)
from .construct import ConstructionMode, construct_lengths
from .oracle import huffman_lengths, huffman_sorted_lengths


def _read_int_lines(path: str) -> list[int]:
    out = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(int(line))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: not an integer: {line!r}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return out


def _read_weights(path: str, presorted: bool) -> WeightList:
    values = _read_int_lines(path)
    if not values:
        raise ValueError(f"{path}: no weights found")
    try:
        return WeightList.from_values(values, sorted_flag=presorted)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _write_lines(path: str | None, lines) -> None:
    text = "".join(f"{line}\n" for line in lines)
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_algo(algo: str, weights: WeightList):
    """Returns (profile, stats-or-None, elapsed ns, comparisons-or-None)."""
    if algo == "two-queue" and not weights.sorted_flag:
        # sort but keep original indices so output stays in input order
        weights = WeightList(tuple(sorted(weights.items)), sorted_flag=True)
    cnt = ComparisonCounter()
    t0 = time.perf_counter_ns()
    if algo == "huffman":
        profile, stats = huffman_lengths(weights), None
    elif algo == "two-queue":
        profile, stats = huffman_sorted_lengths(weights, cnt), None
    else:
        profile, stats = construct_lengths(weights, ConstructionMode(algo))
    dt = time.perf_counter_ns() - t0
    if algo == "huffman":
        return profile, None, dt, None
    return profile, stats, dt, stats.weight_comparisons if stats else cnt.count


def cmd_lengths(args) -> int:
    weights = _read_weights(args.infile, args.sorted)
    profile, stats, dt, comparisons = _run_algo(args.algo, weights)
    _write_lines(args.out, profile.lengths)
    if args.stats:
        side = sys.stderr
        print(f"algo={args.algo}", file=side)
        print(f"n={len(weights)}", file=side)
        print(f"k={distinct_length_count(profile)}", file=side)
        print(f"time_ns={dt}", file=side)
        print(f"comparisons={'' if comparisons is None else comparisons}", file=side)
        print(f"iterations={stats.iterations if stats else ''}", file=side)
        print(f"cache_hits={stats.cache_hits if stats else ''}", file=side)
        print(f"cut_hits={stats.cut_hits if stats else ''}", file=side)
    return 0


def cmd_verify(args) -> int:
    weights = _read_weights(args.weights, False)
    lengths = _read_int_lines(args.lengths)
    if len(lengths) != len(weights):
        raise ValueError(
            f"{args.lengths}: {len(lengths)} lengths for {len(weights)} weights")
    try:
        check_length_range(lengths, len(weights))
    except ValueError as exc:
        raise ValueError(f"{args.lengths}: {exc}") from None
    profile = CodeLengthProfile(tuple(lengths))
    ks = kraft_sum(profile)
    cost = code_cost(weights, profile)
    mono = monotone(weights, profile)
    oracle_cost = code_cost(weights, huffman_lengths(weights))
    expected = Fraction(1, 2) if len(weights) == 1 else Fraction(1)
    exclusion = ks == expected and verify_exclusion(weights, profile)[0]
    optimal = ks == expected and cost == oracle_cost
    print(f"kraft={ks}")
    print(f"cost={cost}")
    print(f"monotone={'yes' if mono else 'no'}")
    print(f"exclusion={'yes' if exclusion else 'no'}")
    print(f"optimal={'yes' if optimal else 'no'} (oracle cost {oracle_cost})")
    return 0 if optimal and mono and exclusion else 1


def cmd_gen(args) -> int:
    values = generators.generate(args.family, args.n, args.seed)
    _write_lines(args.out, values)
    return 0


def cmd_encode(args) -> int:
    weights = _read_weights(args.weights, False)
    symbols = _read_int_lines(args.infile)
    profile, _ = construct_lengths(weights, ConstructionMode("detailed"))
    table = codec.canonical_codes(profile)
    try:
        payload, bits = codec.encode(symbols, table)
    except ValueError as exc:
        raise ValueError(f"{args.infile}: {exc}") from None
    blob = codec.pack_container(profile.lengths, payload, bits)
    with open(args.out, "wb") as fh:
        fh.write(blob)
    print(f"bits={bits}", file=sys.stderr)
    return 0


def cmd_decode(args) -> int:
    with open(args.infile, "rb") as fh:
        blob = fh.read()
    try:
        lengths, payload, bits = codec.unpack_container(blob)
        table = codec.canonical_codes(CodeLengthProfile(tuple(lengths)))
        symbols = codec.decode(payload, bits, table)
    except ValueError as exc:
        raise ValueError(f"{args.infile}: {exc}") from None
    _write_lines(args.out, symbols)
    return 0


def _bench_modes(mode_list: str):
    for mode in mode_list.split(","):
        mode = mode.strip()
        if not mode:
            continue
        base = mode[:-len("-sorted")] if mode.endswith("-sorted") else mode
        presorted = mode.endswith("-sorted") or base == "two-queue"
        if base not in ("detailed", "basic", "huffman", "two-queue"):
            raise ValueError(f"unknown mode {mode!r}")
        yield mode, base, presorted


def cmd_bench(args) -> int:
    families = [f.strip() for f in args.families.split(",") if f.strip()]
    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    modes = list(_bench_modes(args.modes))
    rows = []
    status = 0
    for family in families:
        for n in sizes:
            values = generators.generate(family, n, args.seed)
            for mode, base, presorted in modes:
                wl = (WeightList.from_values(sorted(values), sorted_flag=True)
                      if presorted else WeightList.from_values(values))
                optimal = code_cost(wl, huffman_lengths(wl))
                for rep in range(args.repeat):
                    profile, stats, dt, comparisons = _run_algo(base, wl)
                    cost = code_cost(wl, profile) if rep == 0 else optimal
                    if cost != optimal:
                        print(f"mrcode: error: bench {family} n={len(values)} {mode}: "
                              f"cost {cost}, optimal {optimal}", file=sys.stderr)
                        status = 1
                    rows.append((
                        family, len(values), distinct_length_count(profile),
                        mode, dt, comparisons if comparisons is not None else 0,
                        stats.iterations if stats else 0))
    header = "family,n,k,mode,time_ns,comparisons,iterations"
    lines = [header] + [",".join(str(x) for x in row) for row in rows]
    _write_lines(args.out, lines)

    groups: dict[tuple, list] = {}
    for family, n, k, mode, dt, cmps, its in rows:
        groups.setdefault((family, n, k, mode), []).append((dt, cmps, its))
    med_lines = ["family,n,k,mode,median_time_ns,median_comparisons,iterations"]
    for (family, n, k, mode), vals in groups.items():
        med_lines.append(",".join(str(x) for x in (
            family, n, k, mode,
            int(statistics.median(v[0] for v in vals)),
            int(statistics.median(v[1] for v in vals)),
            max(v[2] for v in vals))))
    if args.out and args.out != "-":
        base = args.out[:-4] if args.out.endswith(".csv") else args.out
        _write_lines(base + ".medians.csv", med_lines)
    return status


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="mrcode",
                                 description="minimum-redundancy prefix codes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lengths", help="compute codeword lengths for a weight file")
    p.add_argument("--algo", choices=["detailed", "basic", "huffman", "two-queue"],
                   default="detailed")
    p.add_argument("--sorted", action="store_true",
                   help="input file is sorted ascending; enables the presorted path")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--stats", action="store_true",
                   help="print key=value statistics to stderr")
    p.set_defaults(func=cmd_lengths)

    p = sub.add_parser("verify", help="check a lengths file against its weights")
    p.add_argument("--weights", required=True)
    p.add_argument("--lengths", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="emit a weight family")
    p.add_argument("--family", choices=list(generators.FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", help="run timing/comparison benchmarks to CSV")
    p.add_argument("--families", required=True, help="comma-separated family names")
    p.add_argument("--sizes", required=True, help="comma-separated sizes")
    p.add_argument("--modes", required=True,
                   help="comma-separated: detailed, basic, huffman, two-queue, "
                        "optionally with a -sorted suffix")
    p.add_argument("--repeat", type=int, default=3)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("encode", help="encode line-delimited symbol indices")
    p.add_argument("--weights", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a container back to symbol indices")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_decode)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"mrcode: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"mrcode: error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
