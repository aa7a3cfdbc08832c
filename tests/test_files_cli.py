import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import finsemi
from finsemi import (
    PartialHom,
    Semigroup,
    format_phm,
    format_sgt,
    load_sgt,
    parse_phm,
    parse_sgt,
    save_sgt,
    semilattice_witness,
    from_table,
    zoo,
)
from finsemi.cli import main
from finsemi.errors import InvalidArgument, NonAssociative, SgtParseError
from finsemi.render import render_egg_box, render_hasse


class TestSgtFormat:
    def test_round_trip(self, m32):
        assert parse_sgt(format_sgt(m32)) == m32

    def test_labels_round_trip(self):
        S = zoo.monogenic(2, 2)
        T = parse_sgt(format_sgt(S))
        assert T.labels == S.labels

    def test_file_round_trip(self, tmp_path, b2):
        path = tmp_path / "b2.sgt"
        save_sgt(b2, path)
        assert load_sgt(path) == b2

    def test_rejects_trailing_garbage(self, m32):
        with pytest.raises(SgtParseError):
            parse_sgt(format_sgt(m32) + "0 1 2 3\nextra\n")

    def test_rejects_short_row(self):
        with pytest.raises(SgtParseError) as e:
            parse_sgt("2\n0 1\n0\n")
        assert e.value.line == 3

    def test_rejects_non_square(self):
        with pytest.raises(SgtParseError):
            parse_sgt("3\n0 1 2\n0 1 2\n")

    def test_rejects_bad_entry(self):
        with pytest.raises(SgtParseError) as e:
            parse_sgt("2\n0 9\n0 1\n")
        assert e.value.line == 2

    @pytest.mark.parametrize("edits, expected", [
        ({(100, 5): "-1"}, (102, "entry table[100][5] = -1 is outside [0, 289)")),
        ({(100, 5): "289"}, (102, "entry table[100][5] = 289 is outside [0, 289)")),
        ({(100, 5): "-1", (50, 3): "300"},
         (52, "entry table[50][3] = 300 is outside [0, 289)")),
        # a later format error wins over an earlier row out of range
        ({(100, 5): "-1", (200, 7): "x"}, (202, "non-integer entry in {}")),
        ({(100, 5): "289", (200, None): ""}, (202, "expected 289 entries, got 288")),
        ({(100, 5): "-1", "labels": "a b c"}, (291, "expected 289 labels, got 3")),
        ({(100, 5): "-1", "tail": "junk"}, (292, "trailing garbage")),
    ], ids=["negative", "too-large", "first-row-wins", "non-integer-later",
            "short-row-later", "labels-later", "garbage-later"])
    def test_out_of_range_above_256(self, edits, expected):
        # order 289, where rows in range are interned as they are read: an
        # out-of-range entry never wraps, and the messages are unchanged
        lines = format_sgt(zoo.rectangular_band(17, 17)).splitlines()
        for key, value in edits.items():
            if key == "labels":
                lines[-1] = value
            elif key == "tail":
                lines.append(value)
            else:
                i, j = key
                parts = lines[1 + i].split()
                if j is None:
                    parts.pop()
                else:
                    parts[j] = value
                lines[1 + i] = " ".join(parts)
        with pytest.raises(SgtParseError) as e:
            parse_sgt("\n".join(lines) + "\n")
        line, message = expected
        if "{}" in message:
            message = message.format(repr(lines[line - 1]))
        assert (e.value.line, str(e.value)) == (line, f"line {line}: {message}")

    def test_rejects_empty(self):
        with pytest.raises(SgtParseError):
            parse_sgt("")


class TestPhmFormat:
    def test_round_trip(self, tmp_path, z2):
        T = from_table(2, [[1, 1], [1, 1]])
        phi = PartialHom(T, z2, {0: 1})
        t_path, s_path = tmp_path / "t.sgt", tmp_path / "s.sgt"
        save_sgt(T, t_path)
        save_sgt(z2, s_path)
        text = format_phm(phi, "t.sgt", "s.sgt")
        parsed = parse_phm(text, lambda ref: load_sgt(tmp_path / ref))
        assert parsed == phi

    @pytest.mark.parametrize("t_ref, s_ref", [
        ("t.sgt", "s.sgt"), ("zoo:chain:2", "my tables/s #1.sgt"),
        ("a#b", "ü.sgt")])
    def test_a_good_reference_reads_back(self, z2, t_ref, s_ref):
        T = from_table(2, [[1, 1], [1, 1]])
        phi = PartialHom(T, z2, {0: 1})
        tables = {t_ref: T, s_ref: z2}
        assert parse_phm(format_phm(phi, t_ref, s_ref), tables.get) == phi

    @pytest.mark.parametrize("ref", [
        5, None, b"t.sgt",   # a bare TypeError from str.join
        # written as is, so parse_phm read the wrong lines
        "a\nb", "a\rb", "a\x0bb", "a\u2028b", "# x", "#",
        "", " ", " t.sgt", "t.sgt\n", "t.sgt\t"])
    @pytest.mark.parametrize("side", ["t_ref", "s_ref"])
    def test_a_bad_reference_is_named(self, z2, side, ref):
        phi = PartialHom(from_table(2, [[1, 1], [1, 1]]), z2, {0: 1})
        refs = {"t_ref": "t.sgt", "s_ref": "s.sgt", side: ref}
        with pytest.raises(InvalidArgument) as e:
            format_phm(phi, **refs)
        assert str(e.value) == f"{side} = {ref!r} is not a one-line reference"

    def test_rejects_duplicate_pair(self, z2):
        text = "t\ns\n0 1\n0 0\n"
        with pytest.raises(SgtParseError):
            parse_phm(text, lambda ref: from_table(2, [[1, 1], [1, 1]])
                      if ref == "t" else z2)


class TestCli:
    def test_validate_ok(self, tmp_path, capsys):
        path = tmp_path / "m.sgt"
        save_sgt(zoo.monogenic(3, 2), path)
        assert main(["validate", str(path)]) == 0
        assert "valid semigroup of order 4" in capsys.readouterr().out

    def test_validate_reports_triple(self, tmp_path, capsys):
        path = tmp_path / "bad.sgt"
        path.write_text("2\n1 0\n0 0\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert "invalid" in out and "*" in out

    def test_validate_non_square_has_line(self, tmp_path, capsys):
        path = tmp_path / "bad.sgt"
        path.write_text("3\n0 1 2\n0 1 2\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "line" in capsys.readouterr().out

    def test_numpy_loads_only_above_order_256(self, tmp_path):
        # A fresh interpreter reports, after each call, its exit code, first
        # output line and which of numpy and the modules no analysis command
        # runs it has loaded.  Above order 256 Light's test runs on tuples
        # while |G| n^2 <= 2^22 (33 * 289^2 for rectangular_band(17, 17)),
        # on numpy above (300^3 for chain_semilattice(300)), and a failing
        # table is scanned for its witness with numpy.
        rb = zoo.rectangular_band(17, 17)
        bad = [list(row) for row in rb._rows]
        bad[5][7] = 0
        with pytest.raises(NonAssociative) as witness:
            Semigroup(bad)
        save_sgt(zoo.monogenic(100, 100), tmp_path / "199.sgt")
        save_sgt(rb, tmp_path / "289.sgt")
        save_sgt(zoo.chain_semilattice(300), tmp_path / "chain300.sgt")
        (tmp_path / "bad289.sgt").write_text(
            "289\n" + "".join(" ".join(map(str, row)) + "\n" for row in bad),
            encoding="utf-8")
        script = (
            "import io, sys, contextlib\n"
            "from finsemi import cli\n"
            "for argv in sys.argv[1:]:\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        rc = cli.main(argv.split())\n"
            "    print(rc, out.getvalue().splitlines()[0], sep='|', end='|')\n"
            "    print(*sorted(m for m in ('numpy', 'finsemi.extend',\n"
            "        'finsemi.properties', 'finsemi.render', 'finsemi.zoo')\n"
            "        if m in sys.modules))\n")
        src = str(Path(finsemi.__file__).resolve().parent.parent)
        paths = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))

        def run(*calls):
            argv = [f"{cmd} {tmp_path / name}.sgt" for cmd, name in calls]
            out = subprocess.run([sys.executable, "-c", script, *argv],
                                 env=env, capture_output=True, text=True,
                                 check=True)
            return [line.split("|") for line in out.stdout.splitlines()]

        calls = [(cmd, name) for name in ("199", "289")
                 for cmd in ("validate", "analyze --json")]
        assert [(rc, loaded) for rc, _, loaded in run(*calls)] == [("0", "")] * 4
        assert run(("validate", "chain300")) == [
            ["0", "valid semigroup of order 300 (zero=0, identity=299)", "numpy"]]
        assert run(("validate", "bad289")) == [
            ["1", f"invalid: {witness.value}", "numpy"]]

    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.sgt")]) == 3

    def test_usage_error_exit_2(self):
        with pytest.raises(SystemExit) as e:
            main(["enumerate"])       # --order is required
        assert e.value.code == 2

    def test_analyze_text(self, tmp_path, capsys):
        path = tmp_path / "m.sgt"
        save_sgt(zoo.monogenic(3, 2), path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "height 3" in out
        assert "conditionally completely regular: True" in out

    def test_analyze_json_round_trips(self, tmp_path, capsys):
        path = tmp_path / "m.sgt"
        save_sgt(zoo.monogenic(3, 2), path)
        assert main(["analyze", "--json", str(path)]) == 0
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["schema_version"] == 1
        assert bundle["stratification"]["height"] == 3
        assert bundle["stratification"]["flags"]["globally_idempotent"] is False
        assert json.loads(json.dumps(bundle)) == bundle

    def test_analyze_json_globally_idempotent_group(self, tmp_path, capsys):
        path = tmp_path / "z.sgt"
        save_sgt(zoo.cyclic_group(2), path)
        main(["analyze", "--json", str(path)])
        bundle = json.loads(capsys.readouterr().out)
        assert bundle["stratification"]["flags"]["globally_idempotent"] is True

    def test_analyze_reports_ccr_witness(self, tmp_path, capsys):
        path = tmp_path / "b2.sgt"
        save_sgt(zoo.brandt_b2(), path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "conditionally completely regular: False" in out
        assert "witness H-class" in out

    def test_decompose_text(self, tmp_path, capsys):
        path = tmp_path / "t2.sgt"
        save_sgt(zoo.full_transformations(2), path)
        assert main(["decompose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 component(s)" in out and "covers:" in out

    def test_decompose_json(self, tmp_path, capsys):
        path = tmp_path / "t2.sgt"
        save_sgt(zoo.full_transformations(2), path)
        assert main(["decompose", "--json", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == 1
        assert payload["rho_classes"] == [[0, 3], [1, 2]]
        assert payload["quotient_table"] == [[0, 0], [0, 1]]

    def test_decompose_rejects_non_ccr(self, tmp_path, capsys):
        path = tmp_path / "b2.sgt"
        save_sgt(zoo.brandt_b2(), path)
        assert main(["decompose", str(path)]) == 1
        assert "witness H-class" in capsys.readouterr().out

    def test_zoo_and_enumerate(self, tmp_path, capsys):
        out_path = tmp_path / "out.sgt"
        assert main(["zoo", "monogenic", "3", "2", "-o", str(out_path)]) == 0
        capsys.readouterr()
        assert load_sgt(out_path) == zoo.monogenic(3, 2)
        assert main(["enumerate", "--order", "2", "--count-only"]) == 0
        assert "# 8 associative" in capsys.readouterr().out

    def test_zoo_unknown_fixture(self, capsys):
        assert main(["zoo", "nonsense"]) == 1

    def test_zoo_bad_parameter(self, capsys):
        assert main(["zoo", "monogenic", "0", "1"]) == 1
        assert "index and period" in capsys.readouterr().err

    @pytest.mark.parametrize("ref, pair", [("zoo:monogenic:x", "0 0"),
                                           ("zoo:cyclic:2", "0 5")])
    def test_extend_bad_phm(self, tmp_path, capsys, ref, pair):
        save_sgt(from_table(2, [[1, 1], [1, 1]]), tmp_path / "t.sgt")
        phm = tmp_path / "bad.phm"
        phm.write_text(f"t.sgt\n{ref}\n{pair}\n", encoding="utf-8")
        assert main(["extend", str(phm)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_utf8_files(self, tmp_path, capsys):
        sgt = tmp_path / "bad.sgt"
        sgt.write_bytes(b"2\n0 0\n0 \xff\n")
        assert main(["validate", str(sgt)]) == 1
        assert "line 3" in capsys.readouterr().out
        assert main(["analyze", str(sgt)]) == 1
        assert "parse error: line 3" in capsys.readouterr().err
        phm = tmp_path / "bad.phm"
        phm.write_bytes(b"\xfe\n")
        assert main(["extend", str(phm)]) == 1

    def test_order_above_cap(self, tmp_path, capsys):
        path = tmp_path / "huge.sgt"
        path.write_text("65536\n0\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "exceeds the supported cap 65535" in capsys.readouterr().out

    def test_extend_round_trip(self, tmp_path, capsys):
        t_path = tmp_path / "t.sgt"
        save_sgt(from_table(2, [[1, 1], [1, 1]]), t_path)
        phm = tmp_path / "fix.phm"
        phm.write_text("t.sgt\nzoo:cyclic:2\n0 0\n", encoding="utf-8")
        out_path = tmp_path / "sigma.sgt"
        assert main(["extend", str(phm), "-o", str(out_path)]) == 0
        capsys.readouterr()
        sigma = load_sgt(out_path)
        assert sigma.order == 3
        assert main(["validate", str(out_path)]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--order", "0"], "error: order must be >= 1"),
        (["enumerate", "--order", "-1"], "error: order must be >= 1"),
        (["zoo", "full_transformations", "0"], "error: k must be >= 1"),
        # orders too large to print or to evaluate
        (["zoo", "full_transformations", "2000"],
         "error: order 2000^2000 exceeds the supported cap 27"),
        (["zoo", "powerset_nil", "20000"],
         "error: order 2^20000 exceeds the supported cap 32"),
        (["zoo", "rectangular_band", "9" * 30, "9" * 30],
         "error: order >= 2^199 exceeds the supported cap 65535"),
    ])
    def test_parameter_errors(self, capsys, argv, message):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == message
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("samples", ["-5", "-1", "100001"])
    def test_verify_samples_out_of_range(self, capsys, monkeypatch, samples):
        def no_sweep(*args, **kw):
            raise AssertionError("sampling started")

        monkeypatch.setattr(finsemi.zoo, "enumerate_associative", no_sweep)
        monkeypatch.setattr(finsemi.zoo, "sample_associative", no_sweep)
        assert main(["verify", "--order", "2", "--samples", samples]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == (
            f"error: samples must be between 0 and 100000, got {samples}")
        assert captured.out == ""
        assert "Traceback" not in captured.err

    def test_verify_default_summary(self, capsys):
        assert main(["verify", "--order", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "checked 18 semigroup(s) (16 product pairs, 0 of 1000 uniform "
            "order-5 samples associative, 10 backtracking samples)")

    def test_verify_passes(self, capsys):
        assert main(["verify", "--order", "2", "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "all property suites passed" in out

    def test_verify_deterministic(self, capsys):
        main(["verify", "--order", "2", "--samples", "20", "--seed", "5"])
        first = capsys.readouterr().out
        main(["verify", "--order", "2", "--samples", "20", "--seed", "5"])
        assert capsys.readouterr().out == first

    def test_verify_prints_offender_verbatim(self, capsys, monkeypatch):
        def fake_check(S, **kw):
            return ["planted violation"] if S.order == 2 and S.zero == 0 else []

        monkeypatch.setattr(finsemi.properties, "check_semigroup", fake_check)
        assert main(["verify", "--order", "2", "--samples", "0"]) == 1
        out = capsys.readouterr().out
        assert "planted violation" in out
        assert "2\n0 0\n0 0\n" in out   # the offending table, verbatim .sgt


class TestRender:
    def test_egg_box_stars_idempotents(self, b2):
        box = render_egg_box(b2)
        assert "*" in box and "D-class" in box

    def test_hasse_chain(self):
        text = render_hasse(zoo.chain_semilattice(3))
        assert "covers:" in text
        assert text.index("e2") < text.index("e0")   # top rendered first

    def test_hasse_needs_one_name_per_element(self):
        Q = zoo.chain_semilattice(3)
        assert render_hasse(Q, ["x", "y", "z"]).splitlines()[0] == "  z"
        for names in (["x"], ["w", "x", "y", "z"], [], 3):
            with pytest.raises(InvalidArgument):
                render_hasse(Q, names)

    def test_hasse_names_are_read_as_str(self):
        # a bare TypeError from str.join, where labels are mapped by str
        Q = zoo.chain_semilattice(2)
        assert render_hasse(Q, [1, 2]) == render_hasse(Q, ["1", "2"])

    @staticmethod
    def set_hasse(Q):
        """render_hasse from the order stored as a set of pairs, with an
        O(n^3) scan for the covers: the reference for the bitset version."""
        n = Q.order
        names = [Q.label(i) for i in range(n)]
        leq = {(a, b) for a in range(n) for b in range(n) if Q.mul(a, b) == a}
        covers = [(a, b) for (a, b) in leq if a != b
                  and not any(c != a and c != b and (a, c) in leq
                              and (c, b) in leq for c in range(n))]
        level = {}
        for a in sorted(range(n), key=lambda a: sum(1 for b in range(n)
                                                    if (b, a) in leq)):
            below = [b for (b, c) in covers if c == a]
            level[a] = 1 + max((level[b] for b in below), default=-1)
        lines = []
        for lv in sorted(set(level.values()), reverse=True):
            members = "   ".join(names[a] for a in sorted(level)
                                 if level[a] == lv)
            lines.append(f"  {members}")
        if covers:
            lines.append("covers: " + ", ".join(f"{names[a]} < {names[b]}"
                                                for a, b in sorted(covers)))
        return "\n".join(lines)

    @staticmethod
    def subset_semilattice(family, op):
        members = sorted(family, key=lambda m: (len(m), sorted(m)))
        pos = {m: i for i, m in enumerate(members)}
        return from_table(len(members), [[pos[op(a, b)] for b in members]
                                         for a in members])

    def hasse_cases(self):
        chain, product = zoo.chain_semilattice, finsemi.direct_product
        yield from (chain(n) for n in range(1, 41))
        yield product(chain(3), chain(3))
        yield product(product(chain(2), chain(2)), chain(4))
        subsets = [frozenset(x for x in range(5) if m >> x & 1)
                   for m in range(32)]
        yield self.subset_semilattice(subsets, frozenset.__and__)
        yield self.subset_semilattice(subsets, frozenset.__or__)
        rng = random.Random(2019)
        for _ in range(30):
            family = {frozenset(x for x in range(6) if rng.random() < 0.5)
                      for _ in range(rng.randint(2, 9))}
            while (grown := family | {a & b for a in family
                                      for b in family}) != family:
                family = grown
            yield self.subset_semilattice(family, frozenset.__and__)

    def test_hasse_rejects_what_is_not_a_semilattice(self):
        for Q in zoo.enumerate_associative(3):
            w = semilattice_witness(Q)
            if w is None:
                assert render_hasse(Q) == self.set_hasse(Q), Q._rows
            else:
                with pytest.raises(InvalidArgument, match=re.escape(str(w))):
                    render_hasse(Q)
        with pytest.raises(InvalidArgument, match=r"witness \(0, 0\)"):
            render_hasse(zoo.cyclic_group(2))

    def test_hasse_matches_the_pair_set_reference(self):
        for Q in self.hasse_cases():
            assert render_hasse(Q) == self.set_hasse(Q), Q._rows
