"""CLI behaviour: output formats, exit codes, caps, and determinism."""

import json
import shlex
from pathlib import Path

import pytest

from permstack import cli
from permstack.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects usage errors this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_sort_basic(capsys):
    code, out, _ = run(capsys, "sort", "--patterns", "21", "--perm", "132")
    assert code == 0
    assert out.strip() == "123"


def test_sort_example(capsys):
    code, out, _ = run(capsys, "sort", "--patterns", "123,132", "--perm", "52413")
    assert code == 0
    assert out.strip() == "42315"


def test_sort_trace_emits_one_json_line_per_step(capsys):
    code, out, _ = run(
        capsys, "sort", "--patterns", "123,132", "--perm", "52413", "--trace"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "42315"
    events = [json.loads(line) for line in lines[1:]]
    assert len(events) == 10
    assert all(set(ev) == {"step", "letter", "stack", "output"} for ev in events)
    assert events[-1]["output"] == [4, 2, 3, 1, 5]
    assert events[-1]["stack"] == []
    steps = "".join(ev["step"] for ev in events)
    assert steps.count("N") == steps.count("X") == 5


def test_sort_json_round_trips_text(capsys):
    _, text_out, _ = run(capsys, "sort", "--patterns", "21", "--perm", "3,1,2")
    _, json_out, _ = run(
        capsys, "sort", "--patterns", "21", "--perm", "3,1,2", "--format", "json"
    )
    payload = json.loads(json_out)
    from permstack.textio import parse_word

    assert tuple(payload["output"]) == parse_word(text_out.strip())


def test_exit_code_parse_failure(capsys):
    code, _, err = run(capsys, "sort", "--patterns", "21", "--perm", "abc")
    assert code == 2
    assert "perm" in err
    code, _, err = run(capsys, "sort", "--patterns", "12x", "--perm", "123")
    assert code == 2
    # superscript and fullwidth digits pass str.isdigit, but letters are ASCII
    for perm in ("\u00b2", "1\u00b2", "[\u00b2]", "2,\u00b2", "\uff11\uff12"):
        code, _, err = run(capsys, "sort", "--patterns", "21", "--perm", perm)
        assert code == 2 and err.startswith("error: bad --perm"), perm
    code, _, err = run(capsys, "sort", "--patterns", "\u00b21", "--perm", "12")
    assert code == 2 and err.startswith("error: bad --patterns")


def test_exit_code_invalid_pattern_set(capsys):
    code, _, err = run(capsys, "sort", "--patterns", "1", "--perm", "123")
    assert code == 3
    code, _, err = run(capsys, "sort", "--patterns", "", "--perm", "123")
    assert code == 3
    code, _, err = run(capsys, "sort", "--patterns", "122", "--perm", "123")
    assert code == 3


def test_exit_code_cap_exceeded(capsys):
    code, _, err = run(capsys, "image", "--patterns", "123", "--n", "13")
    assert code == 4
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("image", "--patterns", "123", "--n", "-1"),
        ("periodic", "--patterns", "123,132", "--n", "-1"),
        ("fertility", "--patterns", "213,231", "--n", "-1"),
        ("table", "--max-n", "0"),
        ("verify", "--suite", "recursion", "--max-n", "-1"),
    ],
)
def test_exit_code_size_out_of_range(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be at least" in err and "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_parallel_below_one_rejected(capsys, workers):
    code, out, err = run(capsys, "image", "--patterns", "123", "--n", "3", "--parallel", workers)
    assert code == 2
    assert out == ""
    assert "--parallel" in err


def test_inverse_round_trip(capsys):
    code, out, _ = run(capsys, "inverse", "--patterns", "132,312", "--perm", "41325")
    assert code == 0
    assert out.strip() == "52413"


def test_inverse_rejects_non_bijective(capsys):
    code, _, err = run(capsys, "inverse", "--patterns", "123", "--perm", "123")
    assert code == 3
    assert "bijective" in err


def test_clump(capsys):
    code, out, _ = run(capsys, "clump", "--patterns", "123,132", "--perm", "731426")
    assert code == 0
    assert "witness_pattern: 123" in out
    assert "segments: [] 7 3 1426" in out
    code, out, _ = run(capsys, "clump", "--patterns", "123", "--perm", "312")
    assert out.strip() == "none"


def test_preimages(capsys):
    code, out, _ = run(capsys, "preimages", "--patterns", "21", "--perm", "1,2,3,4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "count: 14"
    assert len(lines) == 15


def test_fertility(capsys):
    code, out, _ = run(
        capsys, "fertility", "--patterns", "213,231", "--n", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_count"] == 14
    assert payload["bound"] == 14
    assert payload["witnesses"] == [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]]


def test_orbit(capsys):
    code, out, _ = run(capsys, "orbit", "--patterns", "123,132", "--perm", "2,1,3")
    assert code == 0
    assert "cycle_length: 2" in out
    assert "tail: (none)" in out


def test_periodic(capsys):
    code, out, _ = run(
        capsys, "periodic", "--patterns", "123,132", "--n", "5", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["periodic_count"] == 6
    assert len(payload["cycles"]) == 2
    assert all(len(c) == 3 for c in payload["cycles"])


def test_image(capsys):
    code, out, _ = run(capsys, "image", "--patterns", "123", "--n", "3")
    assert code == 0
    assert out.strip() == "5"


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("sigma,tau,n1,n2,n3,n4,catalan")
    assert any(line.startswith("132,312,1,2,5,14,true") for line in lines)
    assert any(line.startswith("123,321,1,2,4,7,false") for line in lines)
    assert sum(",true," in line for line in lines) == 4
    assert len(lines) == 16


def test_table_text_markers_and_notes(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "4")
    assert code == 0
    assert out.count("catalan=true") == 4
    assert "conflict" in out


def test_table_json_round_trips_csv(capsys):
    _, json_out, _ = run(capsys, "table", "--max-n", "3", "--format", "json")
    payload = json.loads(json_out)
    _, csv_out, _ = run(capsys, "table", "--max-n", "3", "--format", "csv")
    rows = csv_out.strip().splitlines()[1:]
    for row_dict, line in zip(payload["rows"], rows):
        counts = [int(x) for x in line.split(",")[2:5]]
        assert counts == row_dict["counts"]


@pytest.mark.parametrize(
    "argv",
    [
        ("sort", "--patterns", "21", "--perm", "1", "--format", "csv"),
        ("verify", "--suite", "recursion", "--max-n", "3", "--format", "json"),
        ("sort", "--patterns", "21", "--perm", "132", "--parallel", "2"),
        ("orbit", "--patterns", "123,132", "--perm", "213", "--parallel", "2"),
        ("image", "--patterns", "123", "--n", "abc"),
    ],
    ids=["sort-csv", "verify-json", "sort-parallel", "orbit-parallel", "image-n-abc"],
)
def test_option_not_honoured_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


def test_verify_suite_small(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "recursion", "--max-n", "4")
    assert code == 0
    assert "summary:" in out
    assert "FAIL" not in out


def test_verify_all_tiny(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--max-n", "3")
    assert code == 0
    golden = Path(__file__).parent / "golden" / "verify_all_max_n_3.txt"
    assert out == golden.read_text()


def test_parallel_output_is_byte_identical(capsys, monkeypatch):
    # with two CPUs, table and verify at max-n 7 start a pool at --parallel 2
    monkeypatch.setattr(cli.dyn.os, "cpu_count", lambda: 2)
    _, out1, _ = run(capsys, "table", "--max-n", "7", "--format", "csv", "--parallel", "1")
    _, out2, _ = run(capsys, "table", "--max-n", "7", "--format", "csv", "--parallel", "2")
    assert out1 == out2
    _, out1, _ = run(capsys, "verify", "--suite", "periodic", "--max-n", "7", "--parallel", "1")
    _, out2, _ = run(capsys, "verify", "--suite", "periodic", "--max-n", "7", "--parallel", "2")
    assert out1 == out2
    _, out1, _ = run(capsys, "periodic", "--patterns", "123,132", "--n", "6",
                     "--format", "json", "--parallel", "1")
    _, out2, _ = run(capsys, "periodic", "--patterns", "123,132", "--n", "6",
                     "--format", "json", "--parallel", "3")
    assert out1 == out2


#: Valid and invalid command lines, ending with exit codes 0, 2, 3 and 4.
MIXED_CALLS = [
    ("sort", "--patterns", "123,132", "--perm", "52413", "--trace"),
    ("image", "--patterns", "21", "--n", "-1"),
    ("table", "--max-n", "3", "--format", "csv"),
    ("sort", "--patterns", "1", "--perm", "12"),
    ("verify", "--suite", "bound", "--max-n", "3"),
    ("sort", "--patterns", "21", "--perm", "1", "--format", "csv"),
    ("periodic", "--patterns", "123,132", "--n", "4", "--format", "json", "--parallel", "2"),
    ("image", "--patterns", "123", "--n", "13"),
    ("orbit", "--patterns", "123,132", "--perm", "2x1"),
    ("preimages", "--patterns", "123", "--perm", "4231", "--format", "json"),
]


def test_main_keeps_no_state_between_calls(capsys):
    def on_fresh_parser(argv):
        cli._build_parser.cache_clear()
        return run(capsys, *argv)

    expected = {argv: on_fresh_parser(argv) for argv in MIXED_CALLS}
    assert {code for code, _, _ in expected.values()} == {0, 2, 3, 4}
    cli._build_parser.cache_clear()
    for argv in MIXED_CALLS + MIXED_CALLS[::-1]:  # one parser for all twenty
        assert run(capsys, *argv) == expected[argv]
    assert cli._build_parser.cache_info().misses == 1


def readme_cli_examples():
    """(argv, comment) for each line of README's sh block under "## CLI"."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        prog, *argv = shlex.split(command)
        assert prog == "permstack", line
        yield argv, comment.strip()


def test_readme_cli_examples_run(capsys):
    ran = 0
    for argv, comment in readme_cli_examples():
        if argv[0] == "verify":
            # the README's verify line sweeps every suite at --max-n 7 (20-22 s
            # on a 2-vCPU Xeon guest); test_acceptance runs those suites already
            continue
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if comment and " " not in comment:  # a bare literal: the first line printed
            assert out.splitlines()[0] == comment, argv
        ran += 1
    assert ran == 10


#: A word past 9 letters, written in the bracket form.
LONG = "[10,2,7,1,11,3,9,4,8,5,6]"

#: Every command in every --format it takes, over a few pattern sets.
EVERY_FORMAT_CALLS = [
    (*call, *fmt)
    for fmt in [(), ("--format", "json")]
    for call in [
        *(("sort", "--patterns", tset, "--perm", perm, *trace)
          for tset, perm in [("123,132", "52413"), ("21", LONG), ("2134", LONG)]
          for trace in [(), ("--trace",)]),
        ("clump", "--patterns", "123,132", "--perm", "731426"),
        ("clump", "--patterns", "21", "--perm", LONG),
        ("clump", "--patterns", "123", "--perm", "312"),  # avoids: no clumping
        ("preimages", "--patterns", "21", "--perm", "1,2,3,4"),
        ("preimages", "--patterns", "123,132", "--perm", "4231"),
        ("preimages", "--patterns", "213,231", "--perm", "[3,4,5,2,6,9,10,1,8,7]"),
        ("orbit", "--patterns", "123,132", "--perm", "2,1,3"),
        ("orbit", "--patterns", "2134", "--perm", LONG),
        ("inverse", "--patterns", "132,312", "--perm", "41325"),
        ("inverse", "--patterns", "132,312", "--perm", LONG),
        ("fertility", "--patterns", "213,231", "--n", "5"),
        ("fertility", "--patterns", "2134", "--n", "4"),
        ("periodic", "--patterns", "123,132", "--n", "5"),
        ("periodic", "--patterns", "21", "--n", "3"),
        ("image", "--patterns", "123", "--n", "3"),
        ("image", "--patterns", "213,231", "--n", "5"),
        ("table", "--max-n", "4"),
    ]
] + [("table", "--max-n", "4", "--format", "csv")]


def test_every_format_pinned(capsys):
    transcript = []
    for argv in EVERY_FORMAT_CALLS:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        transcript.append(f"$ permstack {shlex.join(argv)}\n{out}")
    golden = Path(__file__).parent / "golden" / "cli_every_format.txt"
    assert "".join(transcript) == golden.read_text()
