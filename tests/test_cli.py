import random

import pytest

from mrcode import (CodeLengthProfile, WeightList, construct_lengths,
                    huffman_lengths)
from mrcode.cli import main
from oracles import WORKED_VALUES


def write_lines(path, values):
    path.write_text("".join(f"{v}\n" for v in values))


def read_lines(path):
    return [int(x) for x in path.read_text().split()]


def test_lengths_worked_example(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    write_lines(wf, WORKED_VALUES)
    out = tmp_path / "l.txt"
    assert main(["lengths", "--algo", "detailed", "--in", str(wf),
                 "--out", str(out)]) == 0
    lengths = read_lines(out)
    counts = {l: lengths.count(l) for l in set(lengths)}
    assert counts == {6: 10, 5: 13, 4: 7}


def test_lengths_two_line_file(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    wf.write_text("5\n5\n")
    assert main(["lengths", "--in", str(wf)]) == 0
    assert capsys.readouterr().out.split() == ["1", "1"]


def test_lengths_stats_side_channel(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    write_lines(wf, WORKED_VALUES)
    assert main(["lengths", "--in", str(wf), "--out", str(tmp_path / "l.txt"),
                 "--stats"]) == 0
    err = capsys.readouterr().err
    assert "k=3" in err and "iterations=3" in err
    _, stats = construct_lengths(WeightList.from_values(WORKED_VALUES))
    assert stats.cache_hits > 0 and f"cache_hits={stats.cache_hits}\n" in err
    assert stats.cut_hits > 0 and f"cut_hits={stats.cut_hits}\n" in err


@pytest.mark.parametrize("algo", ["detailed", "basic", "huffman", "two-queue"])
def test_all_algorithms_verify(algo, tmp_path, capsys):
    rng = random.Random(hash(algo) & 0xFFFF)
    wf = tmp_path / "w.txt"
    lf = tmp_path / "l.txt"
    write_lines(wf, [rng.randint(1, 500) for _ in range(60)])
    assert main(["lengths", "--algo", algo, "--in", str(wf), "--out", str(lf)]) == 0
    assert main(["verify", "--weights", str(wf), "--lengths", str(lf)]) == 0
    out = capsys.readouterr().out
    assert "kraft=1\n" in out and "optimal=yes" in out
    assert "monotone=yes\nexclusion=yes\n" in out


def test_lengths_sorted_flag_validates(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    wf.write_text("3\n1\n2\n")
    assert main(["lengths", "--sorted", "--in", str(wf)]) == 2


def test_parse_error_reports_line(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    wf.write_text("3\nfoo\n")
    assert main(["lengths", "--in", str(wf)]) == 2
    assert "2" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    pytest.param(["lengths", "--in", "{zero}"], "{zero}", id="zero-weight"),
    pytest.param(["lengths", "--in", "{empty}"], "{empty}", id="empty-weight-file"),
    pytest.param(["lengths", "--in", "{missing}"], "{missing}", id="missing-input"),
    pytest.param(["lengths", "--in", "{binary}"], "{binary}", id="weights-not-utf-8"),
    pytest.param(["verify", "--weights", "{w}", "--lengths", "{binary}"], "{binary}",
                 id="lengths-not-utf-8"),
    pytest.param(["lengths", "--in", "{w}", "--out", "{nodir}"], "{nodir}",
                 id="lengths-unwritable-out"),
    pytest.param(["encode", "--weights", "{w}", "--in", "{sym}", "--out", "{nodir}"],
                 "{nodir}", id="encode-unwritable-out"),
    pytest.param(["gen", "--family", "equal", "--n", "4", "--out", "{nodir}"],
                 "{nodir}", id="gen-unwritable-out"),
])
def test_malformed_input_exits_2_naming_the_file(argv, named, tmp_path, capsys):
    paths = {name: str(tmp_path / f"{name}.txt")
             for name in ("zero", "empty", "missing", "w", "sym", "binary")}
    paths["nodir"] = str(tmp_path / "no-such-dir" / "out")
    write_lines(tmp_path / "zero.txt", [3, 0, 2])
    write_lines(tmp_path / "empty.txt", [])
    write_lines(tmp_path / "w.txt", [3, 1, 2])
    write_lines(tmp_path / "sym.txt", [0, 1, 2])
    (tmp_path / "binary.txt").write_bytes(b"\xff3\n1\n")
    assert main([arg.format(**paths) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"mrcode: error: {named.format(**paths)}: ")
    assert err.count("\n") == 1


def test_verify_rejects_tampering(tmp_path, capsys):
    rng = random.Random(9)
    wf = tmp_path / "w.txt"
    lf = tmp_path / "l.txt"
    values = [rng.randint(1, 99) for _ in range(30)]
    write_lines(wf, values)
    lengths = list(huffman_lengths(WeightList.from_values(values)).lengths)
    lengths[0] += 1
    write_lines(lf, lengths)
    assert main(["verify", "--weights", str(wf), "--lengths", str(lf)]) == 1
    out = capsys.readouterr().out
    assert "kraft=" in out
    # a Kraft sum other than 1 makes no full tree: a verdict, not an error
    assert "exclusion=no\n" in out
    lengths[0] -= 2
    write_lines(lf, lengths)
    assert main(["verify", "--weights", str(wf), "--lengths", str(lf)]) == 1
    assert "exclusion=no\n" in capsys.readouterr().out


def test_verify_rejects_a_code_without_the_exclusion_property(tmp_path, capsys):
    # Kraft sum 1 and monotone, cost 15 against 14: the two lightest
    # weights pair into a node of value 3 at level 1, and a weight 2 sits
    # at level 2 above it
    wf = tmp_path / "w.txt"
    lf = tmp_path / "l.txt"
    write_lines(wf, [1, 2, 2, 2])
    write_lines(lf, [3, 3, 2, 1])
    assert main(["verify", "--weights", str(wf), "--lengths", str(lf)]) == 1
    assert capsys.readouterr().out == ("kraft=1\ncost=15\nmonotone=yes\nexclusion=no\n"
                                       "optimal=no (oracle cost 14)\n")


def test_verify_rejects_lengths_out_of_range(tmp_path, capsys):
    # a length the weights cannot have, however large, is a usage error,
    # not a verdict
    wf = tmp_path / "w.txt"
    lf = tmp_path / "l.txt"
    write_lines(wf, [3, 5, 7])
    for lengths in ([1, 20000, 2], [1, 3, 2], [0, 1, 1], [1, -2, 2]):
        write_lines(lf, lengths)
        assert main(["verify", "--weights", str(wf), "--lengths", str(lf)]) == 2
        assert "lengths must lie in 1..2" in capsys.readouterr().err
    write_lines(wf, [4])
    write_lines(lf, [2])
    assert main(["verify", "--weights", str(wf), "--lengths", str(lf)]) == 2
    assert "lengths must lie in 1..1" in capsys.readouterr().err


def test_gen_families(tmp_path):
    out = tmp_path / "g.txt"
    assert main(["gen", "--family", "example41", "--n", "16", "--seed", "4",
                 "--out", str(out)]) == 0
    assert len(read_lines(out)) == 26
    assert main(["gen", "--family", "equal", "--n", "8", "--out", str(out)]) == 0
    vals = read_lines(out)
    assert len(set(vals)) == 1 and len(vals) == 8
    assert main(["gen", "--family", "example41", "--n", "10", "--out", str(out)]) == 2


def test_gen_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert main(["gen", "--family", "uniform", "--n", "50", "--seed", "12",
                     "--out", str(path)]) == 0
    assert a.read_text() == b.read_text()


def test_encode_decode_round_trip(tmp_path, capsys):
    rng = random.Random(2)
    wf = tmp_path / "w.txt"
    raw = tmp_path / "raw.txt"
    enc = tmp_path / "enc.bin"
    dec = tmp_path / "dec.txt"
    write_lines(wf, [rng.randint(1, 50) for _ in range(20)])
    write_lines(raw, [rng.randrange(20) for _ in range(400)])
    assert main(["encode", "--weights", str(wf), "--in", str(raw),
                 "--out", str(enc)]) == 0
    assert main(["decode", "--in", str(enc), "--out", str(dec)]) == 0
    assert dec.read_bytes() == raw.read_bytes()


def test_encode_empty_round_trip(tmp_path):
    wf = tmp_path / "w.txt"
    raw = tmp_path / "raw.txt"
    enc = tmp_path / "enc.bin"
    dec = tmp_path / "dec.txt"
    write_lines(wf, [3, 4])
    raw.write_text("")
    assert main(["encode", "--weights", str(wf), "--in", str(raw),
                 "--out", str(enc)]) == 0
    assert main(["decode", "--in", str(enc), "--out", str(dec)]) == 0
    assert dec.read_bytes() == raw.read_bytes()


def test_encode_frequency_matched_corpus_bit_count(tmp_path, capsys):
    wf = tmp_path / "w.txt"
    raw = tmp_path / "raw.txt"
    enc = tmp_path / "enc.bin"
    write_lines(wf, WORKED_VALUES)
    corpus = [i for i, v in enumerate(WORKED_VALUES) for _ in range(v)]
    random.Random(0).shuffle(corpus)
    write_lines(raw, corpus)
    assert main(["encode", "--weights", str(wf), "--in", str(raw),
                 "--out", str(enc)]) == 0
    assert "bits=565" in capsys.readouterr().err


def test_decode_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"not a container")
    assert main(["decode", "--in", str(bad)]) == 2
    # a run header whose counts, 8 lengths of 3, sum to n - 1
    bad.write_bytes(b"PFX2" + (9).to_bytes(8, "little") + (1).to_bytes(2, "little")
                    + (3).to_bytes(2, "little") + (8).to_bytes(8, "little") + bytes(8))
    capsys.readouterr()
    assert main(["decode", "--in", str(bad)]) == 2
    assert capsys.readouterr().err == f"mrcode: error: {bad}: run counts sum to 8, not to n = 9\n"


def test_encode_rejects_out_of_range_symbol(tmp_path):
    wf = tmp_path / "w.txt"
    raw = tmp_path / "raw.txt"
    write_lines(wf, [1, 2])
    write_lines(raw, [0, 2])
    assert main(["encode", "--weights", str(wf), "--in", str(raw),
                 "--out", str(tmp_path / "x.bin")]) == 2


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--families", "equal,two-cluster", "--sizes", "8,16",
                 "--modes", "detailed,detailed-sorted,huffman,two-queue",
                 "--repeat", "2", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "family,n,k,mode,time_ns,comparisons,iterations"
    assert len(lines) == 1 + 2 * 2 * 4 * 2
    for line in lines[1:]:
        family, n, k, mode, time_ns, comparisons, iterations = line.split(",")
        assert int(iterations) <= 2 * int(k)
        assert int(time_ns) > 0
    medians = (tmp_path / "bench.medians.csv").read_text().strip().splitlines()
    assert medians[0].startswith("family,n,k,mode,median_time_ns")
    assert len(medians) == 1 + 2 * 2 * 4


def test_bench_rejects_a_row_that_is_not_optimal(tmp_path, monkeypatch, capsys):
    # a construction that swaps the lengths of the smallest and largest
    # weight is fast but wrong; bench still writes its rows, then exits 1
    def swapped(weights, mode):
        profile, stats = construct_lengths(weights, mode)
        values = [it.value for it in weights.items]
        lo, hi = values.index(min(values)), values.index(max(values))
        lengths = list(profile.lengths)
        lengths[lo], lengths[hi] = lengths[hi], lengths[lo]
        return CodeLengthProfile(tuple(lengths)), stats

    monkeypatch.setattr("mrcode.cli.construct_lengths", swapped)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--families", "exponential", "--sizes", "8",
                 "--modes", "detailed", "--repeat", "2", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mrcode: error: bench exponential n=8 detailed: cost ")
    assert err.count("\n") == 1
    assert len(out.read_text().splitlines()) == 3
    assert len((tmp_path / "bench.medians.csv").read_text().splitlines()) == 2


def test_bench_family_profiles(tmp_path):
    # equal weights: comparisons are dominated by the single level-0 scan;
    # exponential weights: every length is distinct, so k = n - 1
    out = tmp_path / "bench.csv"
    assert main(["bench", "--families", "equal,exponential", "--sizes", "16",
                 "--modes", "detailed", "--repeat", "1", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    by_family = {row[0]: row for row in rows}
    n = 16
    assert int(by_family["equal"][2]) == 1
    assert n - 2 <= int(by_family["equal"][5]) <= 6 * n
    assert int(by_family["exponential"][2]) == n - 1


def test_bench_deterministic_lengths(tmp_path, capsys):
    # same family and seed must produce byte-identical length output
    wf = tmp_path / "w.txt"
    assert main(["gen", "--family", "geometric", "--n", "64", "--seed", "3",
                 "--out", str(wf)]) == 0
    outs = []
    for name in ("a", "b"):
        lf = tmp_path / f"{name}.txt"
        assert main(["lengths", "--algo", "detailed", "--in", str(wf),
                     "--out", str(lf)]) == 0
        outs.append(lf.read_bytes())
    assert outs[0] == outs[1]
