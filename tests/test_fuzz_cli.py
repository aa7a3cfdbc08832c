"""The error contract under fuzzing: every input to the parsers and the CLI
ends in a result, a `SemigroupError` or a documented exit code (0/1/2/3),
never a bare Python exception.

Integer parameters of zoo fixtures are drawn small or above the order cap
of 65,535, and sweep orders small, so one example costs milliseconds: a
fixture of a few thousand elements is a valid input that only takes long.
Text is encodable as UTF-8, the encoding files are written in, and holds
no NUL, which no argv or path can carry.
"""

import contextlib
import io
import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from finsemi import parse_phm, parse_sgt, zoo
from finsemi.cli import _ZOO_TABLE, _resolve_ref, main
from finsemi.errors import SemigroupError

FUZZ = settings(max_examples=300, deadline=None, database=None,
                derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])
FUZZ_CLI = settings(FUZZ, max_examples=200)

text = st.text(st.characters(codec="utf-8", exclude_characters="\x00"),
               max_size=30)
small_int = st.integers(-2, 6)
# beyond every cap, up to the 4,300 digits int() parses by default
param_int = st.one_of(small_int, st.integers(2 ** 16 + 1, 10 ** 4299),
                      st.integers(-10 ** 4299, -3))
ZOO_NAMES = ["monogenic", "cyclic", "zero", "chain", "rectangular_band",
             "brandt_b2", "powerset_nil", "free_nilpotent",
             "full_transformations", "trivial", "partial_map"]
SMALL_TABLES = [S._rows for n in (1, 2, 3) for S in zoo.enumerate_associative(n)]


@st.composite
def sgt_text(draw):
    """An .sgt file: near-valid tables, valid ones, or arbitrary text."""
    kind = draw(st.sampled_from(["table", "associative", "text"]))
    if kind == "text":
        return draw(text)
    if kind == "associative":
        rows = draw(st.sampled_from(SMALL_TABLES))
        n = len(rows)
    else:
        n = draw(st.integers(-1, 4))
        width = max(n, 0)
        rows = draw(st.lists(st.lists(st.integers(-1, width), min_size=width,
                                      max_size=width + 1),
                             min_size=max(width - 1, 0), max_size=width + 1))
    lines = [str(n)] + [" ".join(map(str, row)) for row in rows]
    lines += draw(st.lists(st.sampled_from(["a b", "x", "", "0 1 2"]),
                           max_size=2))
    return "\n".join(lines) + draw(st.sampled_from(["\n", "", "\n\n"]))


@st.composite
def zoo_params(draw, name):
    """Mostly as many small integers as the fixture takes, else anything."""
    arity = _ZOO_TABLE[name][1] if name in _ZOO_TABLE else 3
    if draw(st.integers(0, 3)):
        return [str(v) for v in draw(st.lists(param_int, min_size=arity,
                                              max_size=arity))]
    return draw(st.lists(st.one_of(param_int.map(str), text), max_size=3))


zoo_name = st.sampled_from(ZOO_NAMES + ["nonsense"])
zoo_ref = zoo_name.flatmap(lambda name: zoo_params(name).map(
    lambda params: ":".join(["zoo", name, *params])))


@st.composite
def phm_text(draw):
    """A .phm file: two references and t_index s_index pairs."""
    refs = draw(st.lists(st.one_of(zoo_ref, st.just("t.sgt"), text),
                         min_size=0, max_size=2))
    pairs = draw(st.lists(st.one_of(
        st.tuples(param_int, param_int).map(lambda p: f"{p[0]} {p[1]}"),
        text), max_size=4))
    comments = draw(st.lists(st.just("# note"), max_size=1))
    return "\n".join(comments + refs + pairs) + "\n"


def resolve_for_parse(ref):
    """zoo: tags through the CLI resolver; anything else is a 2-element
    null semigroup, so the mapping lines are exercised too."""
    if ref.startswith("zoo:"):
        return _resolve_ref(ref, ".")
    return parse_sgt("2\n1 1\n1 1\n")


@FUZZ
@given(sgt_text())
def test_parse_sgt_raises_only_semigroup_errors(source):
    try:
        S = parse_sgt(source)
    except SemigroupError:
        return
    assert parse_sgt(source) == S


@FUZZ
@given(phm_text())
def test_parse_phm_raises_only_semigroup_errors(source):
    try:
        parse_phm(source, resolve_for_parse)
    except SemigroupError:
        pass


def _harmless(token):
    """Junk argv never names a path outside the working directory, starts
    a full sweep (verify, enumerate) or asks for a large fixture."""
    if token.startswith("/") or ".." in token or token in ("verify", "enumerate"):
        return False
    try:
        return abs(int(token)) <= 8
    except ValueError:
        return True


junk_token = st.one_of(
    st.sampled_from(["validate", "analyze", "decompose", "extend", "zoo",
                     "--json", "--text", "--order", "--seed", "--samples",
                     "--dedup", "--count-only", "-o", "-h", "t.sgt",
                     "f.phm", "missing.sgt", "monogenic", "2", "-1"]),
    text.filter(_harmless))


@st.composite
def file_bytes(draw, source):
    """UTF-8 of a drawn file, the same with a bad byte spliced in, or raw
    bytes."""
    kind = draw(st.integers(0, 3))
    if kind == 3:
        return draw(st.binary(max_size=40))
    data = draw(source).encode("utf-8")
    if kind == 2:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x80", b"\xc3"])) + data[at:]
    return data


@st.composite
def cli_case(draw):
    """(argv, files to write) for one CLI invocation."""
    files = {"t.sgt": draw(file_bytes(sgt_text())),
             "f.phm": draw(file_bytes(phm_text()))}
    kind = draw(st.sampled_from(["file", "extend", "zoo", "enumerate",
                                 "verify", "junk"]))
    if kind == "file":
        argv = [draw(st.sampled_from(["validate", "analyze", "decompose"])),
                draw(st.sampled_from(["t.sgt", "f.phm", "missing.sgt", "."]))]
        argv += draw(st.lists(st.sampled_from(["--json", "--text"]), max_size=2))
    elif kind == "extend":
        argv = ["extend", draw(st.sampled_from(["f.phm", "t.sgt", "missing"]))]
        argv += draw(st.sampled_from([[], ["-o", "out.sgt"]]))
    elif kind == "zoo":
        name = draw(zoo_name)
        argv = ["zoo", name] + draw(zoo_params(name))
        argv += draw(st.sampled_from([[], ["-o", "zoo.sgt"]]))
    elif kind == "enumerate":
        argv = ["enumerate", "--order", str(draw(st.integers(-2, 3)))]
        argv += draw(st.sampled_from([[], ["--dedup", "iso"],
                                      ["--dedup", "iso+anti"], ["--dedup", "x"]]))
        argv += draw(st.sampled_from([[], ["--count-only"]]))
    elif kind == "verify":
        argv = ["verify", "--order", str(draw(st.sampled_from([-1, 0, 1, 2, 5, 99]))),
                "--samples", str(draw(st.integers(0, 2))),
                "--seed", str(draw(st.integers(-3, 3)))]
    else:
        argv = draw(st.lists(junk_token, max_size=5))
    return argv, files


@FUZZ_CLI
@given(cli_case())
def test_cli_exits_with_a_documented_code(tmp_path_factory, case):
    argv, files = case
    work = tmp_path_factory.mktemp("fuzz")
    for name, data in files.items():
        (work / name).write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(work)   # relative paths in argv stay inside work
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:   # argparse: --help is 0, a usage error 2
        code = e.code
    finally:
        os.chdir(home)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out.getvalue() + err.getvalue()
