from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import cfpq
from cfpq import DataGraph, parse_grammar
from cfpq.cli import _parse_query_file, main
from cfpq.graph import GENERATORS

from conftest import GRAMMARS_DIR

GRAMMAR = "S -> a S b\nS ->\n"
GRAPH = "1\ta\t2\n1\ta\t3\n2\tb\t3\n3\ta\t1\n3\tb\t4\n"
QUERY = "1\tS\n3\tS\n"
RESULTS = "1\tS\t1\n1\tS\t3\n1\tS\t4\n3\tS\t3\n3\tS\t4\n"


@pytest.fixture
def workdir(tmp_path: Path) -> Path:
    (tmp_path / "g.cfg").write_text(GRAMMAR)
    (tmp_path / "d.tsv").write_text(GRAPH)
    (tmp_path / "q.tsv").write_text(QUERY)
    return tmp_path


def _subprocess_env() -> dict[str, str]:
    """The environment of a child ``python -m cfpq`` that imports this package."""
    src = Path(cfpq.__file__).resolve().parent.parent
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def _stderr_stats(capsys) -> dict[str, str]:
    err = capsys.readouterr().err
    return dict(line.split("=", 1) for line in err.splitlines() if "=" in line)


def test_eval_writes_sorted_results_file(workdir, capsys):
    out = workdir / "results.tsv"
    code = main(
        [
            "eval",
            "--grammar", str(workdir / "g.cfg"),
            "--graph", str(workdir / "d.tsv"),
            "--query", str(workdir / "q.tsv"),
            "--out", str(out),
        ]
    )
    assert code == 0
    assert out.read_text() == RESULTS
    stats = _stderr_stats(capsys)
    assert stats["results"] == "5"
    assert stats["items_created"] == "6"
    assert stats["edges_added"] == "6"
    assert "elapsed_ms" in stats


def test_eval_defaults_to_stdout(workdir, capsys):
    code = main(
        ["eval", "--grammar", str(workdir / "g.cfg"), "--graph", str(workdir / "d.tsv"),
         "--query", str(workdir / "q.tsv")]
    )
    assert code == 0
    assert capsys.readouterr().out == RESULTS


def test_eval_all_vertices_by_default(workdir, capsys):
    code = main(
        ["eval", "--grammar", str(workdir / "g.cfg"), "--graph", str(workdir / "d.tsv")]
    )
    assert code == 0
    out = capsys.readouterr().out
    # the two epsilon self-answers for vertices 2 and 4 join the five rows
    assert len(out.splitlines()) == 7
    assert "2\tS\t2" in out
    assert "4\tS\t4" in out


@pytest.mark.parametrize(
    "grammar, options",
    [
        ("ab_ambiguous.cfg", ["--n", "100", "--k", "3", "--labels", "a,b"]),
        ("sc.cfg", ["--n", "150", "--k", "5", "--labels", "subClassOf,type", "--add-inverses"]),
    ],
    ids=["sparse", "masks"],
)
def test_eval_counts_one_result_per_output_line(grammar, options, tmp_path, capsys):
    args = ["--grammar", str(GRAMMARS_DIR / grammar), *options]
    out = tmp_path / "results.tsv"
    assert main(["eval", *args, "--gen", "barabasi", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert main(["eval", *args, "--gen", "barabasi", "--seed", "1", "--out", str(out)]) == 0
    assert out.read_text() == captured.out
    assert captured.out.endswith("\n")
    assert _stderr_stats(capsys)["results"] == str(captured.out.count("\n"))


def test_eval_lists_all_query_offenders(workdir, capsys):
    bad = workdir / "bad.tsv"
    bad.write_text("9\tS\n1\tX\nnot a pair\n1\tS\n")
    code = main(
        ["eval", "--grammar", str(workdir / "g.cfg"), "--graph", str(workdir / "d.tsv"),
         "--query", str(bad)]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "unknown vertex '9'" in err
    assert "line 2" in err and "unknown nonterminal 'X'" in err
    assert "line 3" in err


def _exit_status(argv: list[str]) -> int:
    """main's exit status, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "sources, message",
    [
        (["--graph", "{dir}/d.tsv", "--gen", "ablist", "--n", "2"], "exactly one of --graph or --gen is required"),
        ([], "exactly one of --graph or --gen is required"),
        (["--gen", "ablist"], "--gen requires --n"),
        (["--gen", "ablist", "--n", "2,x"], None),
        (["--gen", "ablist", "--n", ","], None),
    ],
    ids=["both", "neither", "gen-without-n", "n-not-an-integer", "n-empty"],
)
def test_eval_graph_source_errors(workdir, capsys, sources, message):
    argv = ["eval", "--grammar", str(workdir / "g.cfg"), *(arg.format(dir=workdir) for arg in sources)]
    assert _exit_status(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if message is None:
        # argparse rejects the value and writes its usage
        assert "--n" in captured.err
    else:
        assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, expected",
    [("eval", RESULTS), ("check", "check: ok pairs=2 results=5 disciplines=fifo,lifo,random\n")],
    ids=["eval", "check"],
)
def test_a_comma_in_a_graph_path_is_part_of_the_file_name(workdir, capsys, command, expected):
    (workdir / "a,b.tsv").write_text(GRAPH)
    code = main(
        [command, "--grammar", str(workdir / "g.cfg"), "--graph", str(workdir / "a,b.tsv"),
         "--query", str(workdir / "q.tsv")]
    )
    assert code == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--grammar", "{dir}/g.cfg", "--gen", "ablist", "--n", "5,10"],
        ["check", "--grammar", "{dir}/g.cfg", "--gen", "ablist", "--n", "5,10"],
        ["gen", "ablist", "--n", "5,10"],
    ],
    ids=["eval-n", "check-n", "gen-n"],
)
def test_a_command_on_one_graph_rejects_two(workdir, capsys, command):
    assert _exit_status([arg.format(dir=workdir) for arg in command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --n: invalid int value: '5,10'" in captured.err


def test_eval_missing_file_is_a_clean_error(workdir, capsys):
    code = main(["eval", "--grammar", str(workdir / "nope.cfg"), "--graph", str(workdir / "d.tsv")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["grammar", "graph", "query"])
def test_eval_non_utf8_file_is_a_clean_error(workdir, capsys, role):
    files = {"grammar": workdir / "g.cfg", "graph": workdir / "d.tsv", "query": workdir / "q.tsv"}
    files[role] = workdir / "latin1.txt"
    files[role].write_bytes("caf\xe9\tS\n".encode("latin-1"))
    code = main(["eval", *(f"--{name}={path}" for name, path in files.items())])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "latin1.txt" in err


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--grammar", "{dir}/g.cfg", "--graph", "{dir}/d.tsv"],
        ["gen", "ablist", "--n", "2"],
        ["check", "--grammar", "{dir}/g.cfg", "--graph", "{dir}/d.tsv"],
    ],
    ids=["eval", "gen", "check"],
)
def test_out_into_a_missing_directory_is_a_clean_error(workdir, capsys, command):
    target = workdir / "no" / "such" / "dir" / "out.tsv"
    code = main([arg.format(dir=workdir) for arg in command] + ["--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error: cannot write" in err and str(target) in err


@pytest.mark.parametrize(
    "command",
    [
        ["eval", "--grammar", "{dir}/g.cfg", "--graph", "{dir}/d.tsv"],
        ["gen", "ablist", "--n", "2"],
        ["check", "--grammar", "{dir}/g.cfg", "--graph", "{dir}/d.tsv"],
    ],
    ids=["eval", "gen", "check"],
)
def test_a_closed_stdout_is_a_clean_error(workdir, command):
    # The reader is gone before the first write, as after `| head -1`.
    child = subprocess.Popen(
        [sys.executable, "-m", "cfpq", *(arg.format(dir=workdir) for arg in command)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_subprocess_env(),
    )
    child.stdout.close()
    try:
        err = child.communicate(timeout=60)[1]
    finally:
        child.kill()
    assert child.returncode == 2
    assert err == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("kind", ["ablist", "string"])
def test_gen_size_error_names_the_given_n(capsys, kind):
    assert main(["gen", kind, "--n", "-3"]) == 2
    assert "got -3" in capsys.readouterr().err


def test_eval_rejects_label_clash(workdir, capsys):
    tainted = workdir / "t.tsv"
    tainted.write_text("1\tS\t2\n")
    code = main(["eval", "--grammar", str(workdir / "g.cfg"), "--graph", str(tainted)])
    assert code == 2
    assert "collide" in capsys.readouterr().err


def test_label_clash_is_an_error_under_python_O(workdir):
    # The check must not be an assert: python -O strips those, and the
    # clashing S edge would then be silently ignored.
    tainted = workdir / "t.tsv"
    tainted.write_text("1\tS\t2\n")
    completed = subprocess.run(
        [sys.executable, "-O", "-m", "cfpq", "eval", "--grammar", str(workdir / "g.cfg"), "--graph", str(tainted)],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        timeout=60,
    )
    assert completed.returncode == 2
    assert "collide" in completed.stderr


def test_gen_ablist_golden(capsys):
    assert main(["gen", "ablist", "--n", "2"]) == 0
    assert capsys.readouterr().out == "0\ta\t1\n1\ta\t2\n2\tb\t3\n3\tb\t4\n"


def test_gen_complete_exact(capsys):
    assert main(["gen", "complete", "--n", "2", "--labels", "a"]) == 0
    assert capsys.readouterr().out == "0\ta\t0\n0\ta\t1\n1\ta\t0\n1\ta\t1\n"


def test_gen_barabasi_deterministic(capsys):
    assert main(["gen", "barabasi", "--n", "40", "--k", "3", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "barabasi", "--n", "40", "--k", "3", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_gen_rejects_bad_params(capsys):
    assert main(["gen", "cycle", "--n", "0"]) == 2
    assert main(["gen", "barabasi", "--n", "3", "--k", "9"]) == 2


@pytest.mark.parametrize("labels", ["", ","])
@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_gen_rejects_an_empty_label_list(kind, labels, capsys):
    assert main(["gen", kind, "--n", "3", "--labels", labels]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at least one label is required" in captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "complete", "--n", "2", "--k", "9"], "--k is not an option of the complete generator"),
        (["gen", "string", "--n", "3", "--seed", "-5"], "--seed is not an option of the string generator"),
        (["gen", "ablist", "--n", "2", "--labels", "a"], "--labels is not an option of the ablist generator"),
        (["eval", "--grammar", "{dir}/g.cfg", "--gen", "cycle", "--n", "2", "--k", "1"],
         "--k is not an option of the cycle generator"),
        (["eval", "--grammar", "{dir}/g.cfg", "--graph", "{dir}/d.tsv", "--n", "3"], "--n is not an option of --graph"),
        (["check", "--grammar", "{dir}/g.cfg", "--graph", "{dir}/d.tsv", "--labels", "a"],
         "--labels is not an option of --graph"),
    ],
    ids=["gen-complete-k", "gen-string-seed", "gen-ablist-labels", "eval-cycle-k", "eval-graph-n", "check-graph-labels"],
)
def test_an_option_the_graph_source_does_not_take_is_rejected(workdir, capsys, argv, message):
    assert main([arg.format(dir=workdir) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "string", "--n", "2", "--labels", "x"],
        ["gen", "barabasi", "--n", "5", "--k", "2", "--seed", "3", "--labels", "a,b"],
        ["eval", "--grammar", "{dir}/g.cfg", "--gen", "string", "--n", "3", "--seed", "5"],
        ["check", "--grammar", "{dir}/g.cfg", "--gen", "ablist", "--n", "3", "--seed", "5"],
        ["eval", "--grammar", "{dir}/g.cfg", "--graph", "{dir}/d.tsv", "--seed", "5", "--discipline", "random"],
    ],
    ids=["gen-string-label", "gen-barabasi-all", "eval-string-seed", "check-ablist-seed", "eval-graph-seed"],
)
def test_options_the_graph_source_or_the_discipline_takes_are_accepted(workdir, capsys, argv):
    # eval and check take --seed with any graph source: it also seeds the random discipline
    assert main([arg.format(dir=workdir) for arg in argv]) == 0
    assert "error" not in capsys.readouterr().err


# A tab would add a field to each written edge, a line break split it.
@pytest.mark.parametrize("char", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
@pytest.mark.parametrize(
    "command",
    [["gen", "string"], ["eval", "--grammar", "{dir}/g.cfg", "--gen", "string"]],
    ids=["gen", "eval"],
)
def test_a_label_that_would_break_the_tsv_is_rejected(workdir, capsys, command, char):
    label = f"a{char}b"
    code = main([arg.format(dir=workdir) for arg in command] + ["--n", "2", "--labels", f"s,{label}"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --labels: a label cannot hold a tab or a line break: {label!r}\n"


def test_check_agrees_on_the_example(workdir, capsys):
    code = main(["check", "--grammar", str(workdir / "g.cfg"), "--graph", str(workdir / "d.tsv")])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("check: ok")
    assert "disciplines=fifo,lifo,random" in out


def test_check_reports_the_first_mismatch(workdir, capsys, monkeypatch):
    import cfpq.cli as cli_module

    real_fixpoint_relations = cli_module.fixpoint_relations

    def corrupted(grammar, graph):
        table = real_fixpoint_relations(grammar, graph)
        table.relations[grammar.start] ^= {(0, 0)}
        return table

    monkeypatch.setattr(cli_module, "fixpoint_relations", corrupted)
    code = main(["check", "--grammar", str(workdir / "g.cfg"), "--graph", str(workdir / "d.tsv")])
    assert code == 1
    out = capsys.readouterr().out
    assert "mismatch under fifo" in out
    assert "engine=" in out and "oracle=" in out


# str.splitlines would also end a line at each of these.
@pytest.mark.parametrize("char", list("\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
def test_query_lines_end_only_at_cr_and_lf(char):
    graph = DataGraph()
    graph.intern(f"x{char}y")
    graph.intern("z")
    grammar = parse_grammar(GRAMMAR)
    assert _parse_query_file(f"x{char}y\tS\r\nz\tS\r", graph, grammar) == [(0, "S"), (1, "S")]
    with pytest.raises(cfpq.CfpqError, match="line 3:"):
        _parse_query_file(f"x{char}y\tS\r\n\rz\n", graph, grammar)


def test_a_repeated_query_pair_changes_nothing(workdir, capsys):
    (workdir / "repeats.tsv").write_text(QUERY + "1\tS\n")
    seen = []
    for query in ("q.tsv", "repeats.tsv"):
        inputs = ["--grammar", str(workdir / "g.cfg"), "--graph", str(workdir / "d.tsv"),
                  "--query", str(workdir / query)]
        assert main(["eval", *inputs]) == 0
        evaluated = capsys.readouterr()
        results = [line for line in evaluated.err.splitlines() if line.startswith("results=")]
        assert main(["check", *inputs]) == 0
        seen.append((evaluated.out, results, capsys.readouterr().out))
    assert seen[0] == seen[1]
    assert seen[0][:2] == (RESULTS, ["results=5"])
    assert seen[0][2].startswith("check: ok pairs=2 results=5 ")


def test_eval_on_an_empty_graph(workdir, capsys):
    code = main(["eval", "--grammar", str(workdir / "g.cfg"), "--gen", "complete", "--n", "0"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "results=0" in captured.err


def test_check_respects_the_size_budget(workdir, capsys):
    # 317 * 317 = 100 489 triples, just over the reference evaluator's budget
    code = main(
        ["check", "--grammar", str(workdir / "g.cfg"), "--gen", "complete", "--n", "317", "--labels", "a"]
    )
    assert code == 2
    assert "over the budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, option, message",
    [
        ("check", ["--discipline", "lifo"], "unrecognized arguments: --discipline lifo"),
        ("eval", ["--all-from", "S"], "unrecognized arguments: --all-from S"),
        ("check", ["--max-triples", "3"], "unrecognized arguments: --max-triples 3"),
        ("bench", [], "argument command: invalid choice: 'bench'"),
    ],
    ids=["check-discipline", "eval-all-from", "check-max-triples", "bench"],
)
def test_options_a_command_does_not_take_are_rejected(workdir, capsys, command, option, message):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--grammar", str(workdir / "g.cfg"), "--graph", str(workdir / "d.tsv"), *option])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_add_inverses_round_trip(tmp_path, capsys):
    (tmp_path / "inv.cfg").write_text("S -> p p^-1\n")
    (tmp_path / "e.tsv").write_text("x\tp\ty\n")
    code = main(
        ["eval", "--grammar", str(tmp_path / "inv.cfg"), "--graph", str(tmp_path / "e.tsv"),
         "--add-inverses"]
    )
    assert code == 0
    assert capsys.readouterr().out == "x\tS\tx\n"
    # without the flag there is no inverse edge, hence no answer
    code = main(
        ["eval", "--grammar", str(tmp_path / "inv.cfg"), "--graph", str(tmp_path / "e.tsv")]
    )
    assert code == 0
    assert capsys.readouterr().out == ""


def test_ntriples_files_load_by_suffix(tmp_path, capsys):
    (tmp_path / "g.cfg").write_text("S -> p\n")
    (tmp_path / "d.nt").write_text("<http://e/x> <http://e/p> <http://e/y> .\n")
    code = main(["eval", "--grammar", str(tmp_path / "g.cfg"), "--graph", str(tmp_path / "d.nt")])
    assert code == 0
    assert capsys.readouterr().out == "x\tS\ty\n"


@pytest.mark.parametrize("name", ["d.NT", "d.Nt"])
def test_the_ntriples_suffix_matches_in_any_case(tmp_path, capsys, name):
    (tmp_path / "g.cfg").write_text("S -> p\n")
    (tmp_path / name).write_text("<http://e/x> <http://e/p> <http://e/y> .\n")
    code = main(["eval", "--grammar", str(tmp_path / "g.cfg"), "--graph", str(tmp_path / name)])
    assert code == 0
    assert capsys.readouterr().out == "x\tS\ty\n"
