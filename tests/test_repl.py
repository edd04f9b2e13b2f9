"""Shell plumbing: script splitting, table formatting, the script runner,
and the interactive loop driven through StringIO."""

import io
import re
import sys

import pytest

from graphtables import repl
from graphtables.engine import Database, ResultTable
from graphtables.repl import format_table, main, run_repl, run_script, split_statements

from conftest import FAMILY_CREATE


# --- statement splitting ---

def test_one_statement_per_line():
    text = "CREATE (:A {N: 1})\nMATCH (x:A) RETURN x.N\n"
    assert split_statements(text) == [
        (1, "CREATE (:A {N: 1})"),
        (2, "MATCH (x:A) RETURN x.N"),
    ]


def test_blank_lines_and_comments_are_skipped():
    text = "\n// heading\nCREATE (:A {N: 1})\n\n  // tail\n"
    assert split_statements(text) == [(3, "CREATE (:A {N: 1})")]


def test_bracket_block_spans_lines_and_keeps_its_start_line():
    text = "// prologue\n[CREATE (:A {N: 1}),\n  (:A {N: 2})]\nSHOW GRAPHS\n"
    parts = split_statements(text)
    assert parts[0] == (2, "CREATE (:A {N: 1}),\n  (:A {N: 2})")
    assert parts[1] == (4, "SHOW GRAPHS")


def test_block_may_contain_quantifier_brackets():
    text = "[MATCH (x:A)\n  [()-[:E]->()]+ (y)\nRETURN y.N]\n"
    (line_no, body), = split_statements(text)
    assert line_no == 1
    assert body == "MATCH (x:A)\n  [()-[:E]->()]+ (y)\nRETURN y.N"


def test_brackets_inside_strings_and_comments_do_not_count():
    text = "[CREATE (:A {S: 'open [ bracket'}),  // stray ] here\n  (:A {S: ']'})]\n"
    (_, body), = split_statements(text)
    assert body.endswith("(:A {S: ']'})")


def test_a_string_may_span_the_lines_of_a_block():
    text = "[CREATE (:P {S: 'a\n]'}),\n (:Q {N: 1})]\n"
    assert split_statements(text) == [(1, "CREATE (:P {S: 'a\n]'}),\n (:Q {N: 1})")]


def test_unclosed_block_at_the_end_is_one_statement():
    text = "// c\n[CREATE (:A {N: 1}),\n  (:A {N: 2})\n"
    assert split_statements(text) == [(2, "[CREATE (:A {N: 1}),\n  (:A {N: 2})")]


# --- result formatting ---

def test_format_table_draws_dashed_ascii():
    table = ResultTable(["NAME"], [["Fred Smith"], ["Mary Smith"]])
    assert format_table(Database().read_view(), table) == (
        "------------\n"
        "|NAME      |\n"
        "------------\n"
        "|Fred Smith|\n"
        "|Mary Smith|\n"
        "------------"
    )


def test_format_table_pads_to_the_widest_cell_per_column():
    table = ResultTable(["A", "LONGHEAD"], [[1000, "x"], [7, None]])
    lines = format_table(Database().read_view(), table).split("\n")
    assert lines[1] == "|A   |LONGHEAD|"
    assert lines[3] == "|1000|x       |"
    assert lines[4] == "|7   |        |"


def test_format_table_zero_columns_is_a_truth_value():
    view = Database().read_view()
    assert format_table(view, ResultTable([], [[]])) == "true"
    assert format_table(view, ResultTable([], [])) == "false"


def test_format_table_renders_row_values_and_arrays(family):
    table = family.execute(
        "MATCH ({name:'Peter Smith'}) [(p)-[:Child]->()]+ ({Name: 'Lee Smith'}) RETURN p")
    text = format_table(family.read_view(), table)
    assert "ARRAY[PERSON(ID=2,NAME=Peter Smith),PERSON(ID=1,NAME=Fred Smith)," \
           "PERSON(ID=3,NAME=Mary Smith)]" in text


# --- the script runner ---

def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_run_script_executes_and_prints_tables(tmp_path, capsys):
    path = write(tmp_path, "ok.sql",
                 "CREATE (:Person {Name: 'Ada'})\n"
                 "MATCH (x:Person) RETURN x.Name\n")
    rc = run_script(Database(), path)
    captured = capsys.readouterr()
    assert rc == 0
    assert "|Ada " in captured.out
    assert captured.err == ""


def test_run_script_stops_at_the_first_error(tmp_path, capsys):
    path = write(tmp_path, "bad.sql",
                 "CREATE (:Person {Name: 'Ada'})\n"
                 "MATCH (x:Person RETURN x\n"
                 "CREATE (:Person {Name: 'Bea'})\n")
    db = Database()
    rc = run_script(db, path)
    captured = capsys.readouterr()
    assert rc == 1
    assert f"{path}:2: error:" in captured.err
    # nothing after the failing line ran
    table = db.execute("MATCH (x:Person) RETURN x.Name")
    assert {r[0] for r in table.rows} == {"Ada"}


def test_run_script_keep_going_runs_the_rest(tmp_path, capsys):
    path = write(tmp_path, "bad.sql",
                 "CREATE (:Person {Name: 'Ada'})\n"
                 "MATCH (x:Person RETURN x\n"
                 "CREATE (:Person {Name: 'Bea'})\n")
    db = Database()
    rc = run_script(db, path, keep_going=True)
    assert rc == 1
    table = db.execute("MATCH (x:Person) RETURN x.Name")
    assert {r[0] for r in table.rows} == {"Ada", "Bea"}
    capsys.readouterr()


def test_run_script_keep_going_survives_deep_nesting(tmp_path, capsys):
    # parser and evaluator recursion beyond Python's limit fails only the
    # statement; auto-commit transactions it opened are rolled back
    deep = "(" * 3000 + "p.N = 1" + ")" * 3000
    long_sum = " + ".join(["1"] * 5000)
    path = write(tmp_path, "deep.sql",
                 "CREATE (:P {N: 1})\n"
                 f"MATCH (p:P) WHERE {deep} RETURN p.N\n"
                 f"MATCH (p:P) WHERE p.N = {long_sum} RETURN p.N\n"
                 f"MATCH (p:P) SET p.N = {long_sum}\n"
                 "MATCH (p:P) RETURN p.N\n")
    db = Database()
    opened = []
    begin = db.begin
    db.begin = lambda: opened.append(begin()) or opened[-1]
    rc = run_script(db, path, keep_going=True)
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.splitlines() == [
        f"{path}:{n}: error: statement nests too deeply" for n in (2, 3, 4)]
    assert "|1|" in captured.out
    assert [tx.status for tx in opened] == ["committed", "rolled-back", "rolled-back",
                                            "committed"]


def test_run_script_error_points_at_the_block_start_line(tmp_path, capsys):
    path = write(tmp_path, "block.sql",
                 "// comment\n"
                 "[CREATE (:Person\n"
                 "  {Name: 'Ada'}),]\n")
    rc = run_script(Database(), path)
    captured = capsys.readouterr()
    assert rc == 1
    assert f"{path}:" in captured.err and "error:" in captured.err


def test_run_script_timing_output(tmp_path):
    path = write(tmp_path, "timed.sql",
                 "CREATE (:Person {Name: 'Ada'})\n"
                 "CREATE (:Person {Name: 'Bea'})\n")
    out = io.StringIO()
    rc = run_script(Database(), path, timing=True, out=out)
    assert rc == 0
    lines = out.getvalue().splitlines()
    per_stmt = [l for l in lines if l.startswith("-- ") and l.endswith(" ms")]
    assert len(per_stmt) == 2
    assert lines[-1].startswith("2 statements in ")
    assert lines[-1].endswith("statements/s)")


def test_timing_lines_name_the_script_line_and_the_statement_head(tmp_path):
    path = write(tmp_path, "timed.sql",
                 "// a comment\n"
                 "CREATE (:Person {Name: 'Ada'})\n"
                 "\n"
                 "[MATCH (x:Person {Name: 'Ada'})\n"
                 "   SET x.Name = 'Ada Augusta King, Countess of Lovelace']\n")
    out = io.StringIO()
    assert run_script(Database(), path, timing=True, out=out) == 0
    heads = [re.fullmatch(r"(-- line \d+: .*) \d+\.\d{3} ms", line).group(1)
             for line in out.getvalue().splitlines()[:-1]]
    assert heads == ["-- line 2: CREATE (:Person {Name: 'Ada'})",
                     "-- line 4: MATCH (x:Person {Name: 'Ada'}) SET x.Na…"]


# --- the interactive loop ---

def drive(db, text):
    out = io.StringIO()
    rc = run_repl(db, stdin=io.StringIO(text), stdout=out)
    return rc, out.getvalue()


def test_repl_executes_lines_and_prompts():
    rc, out = drive(Database(),
                    "CREATE (:Person {Name: 'Ada'})\n"
                    "MATCH (x:Person) RETURN x.Name\n"
                    "exit\n")
    assert rc == 0
    assert out.count("SQL> ") == 3
    assert "|Ada " in out


def test_repl_reports_errors_and_carries_on():
    rc, out = drive(Database(), "MATCH (x:Nope RETURN x\nquit\n")
    assert rc == 0
    assert "error:" in out


def test_repl_bracket_block_uses_continuation_prompt():
    rc, out = drive(Database(),
                    "[CREATE (:Person {Name: 'Ada'}),\n"
                    "  (:Person {Name: 'Bea'})]\n"
                    "MATCH (x:Person) RETURN x.Name\n"
                    "exit\n")
    assert rc == 0
    assert "> " in out.replace("SQL> ", "")
    assert "Ada" in out and "Bea" in out


def test_repl_splits_statements_as_scripts_do(monkeypatch):
    text = ("\n// heading\nCREATE (:A {N: 1})\n"
            "[MATCH (x:A)\n  [()-[:E]->()]+ (y)\nRETURN y.N]\n"
            "  // tail\n[CREATE (:A {S: ']'}),  // stray ] here\n  (:A {N: 2})]\n"
            "[CREATE (:A {N: 3})\n")
    ran = []
    monkeypatch.setattr(repl, "_execute_line", lambda session, text, stdout: ran.append(text))
    rc, out = drive(Database(), text)
    assert rc == 0
    assert ran == [stmt for _, stmt in split_statements(text)]
    assert len(ran) == 4
    # one continuation prompt per line read inside a block, the end of
    # input included
    assert out.replace("SQL> ", "").count("> ") == 4


def test_repl_eof_exits_cleanly():
    rc, out = drive(Database(), "")
    assert rc == 0
    assert out == "SQL> \n"


def test_repl_session_keeps_one_transaction_open(family):
    rc, out = drive(family,
                    "BEGIN\n"
                    "MATCH (x) WHERE x.Id = 4 SET x.Name = 'X'\n"
                    "ROLLBACK\n"
                    "MATCH (x) WHERE x.Id = 4 RETURN x.Name\n"
                    "exit\n")
    assert rc == 0
    assert "Lee Smith" in out


# --- the command-line entry point ---

def test_main_runs_a_script_against_a_file_db(tmp_path, capsys):
    script = write(tmp_path, "fam.sql", FAMILY_CREATE + "\nSHOW GRAPHS\n")
    dbfile = str(tmp_path / "fam.db")
    rc = main([dbfile, "--script", script])
    captured = capsys.readouterr()
    assert rc == 0
    assert "|GRAPH|NODES|EDGES|" in captured.out

    # the log file persists what the script built
    db = Database(dbfile)
    assert len(db.execute("MATCH (x:Person) RETURN x.Name")) == 5
    db.close()


def test_main_memory_database_with_timing(tmp_path, capsys):
    script = write(tmp_path, "t.sql", "CREATE (:A {N: 1})\n")
    rc = main([":memory:", "--script", script, "--time"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "1 statements in " in captured.out


# --- results read through the session's view ---

def test_run_script_renders_rows_of_a_type_created_in_the_open_transaction(tmp_path, capsys):
    path = write(tmp_path, "tx.sql", "BEGIN\nCREATE (:Q {N: 1})\nMATCH (q:Q) RETURN q\n")
    out = io.StringIO()
    rc = run_script(Database(), path, out=out)
    assert rc == 0
    assert "|Q(ID=1,N=1)|" in out.getvalue()
    assert capsys.readouterr().err == ""


def test_run_script_writes_tables_to_its_out_argument(tmp_path, capsys):
    path = write(tmp_path, "ok.sql", "CREATE (:A {N: 7})\nMATCH (x:A) RETURN x.N\n")
    out = io.StringIO()
    assert run_script(Database(), path, out=out) == 0
    assert "|7|" in out.getvalue()
    assert capsys.readouterr().out == ""


def test_repl_renders_edge_references_as_the_open_transaction_reads_them():
    db = Database()
    db.execute("CREATE (:P {N: 1})-[:S]->(:P {N: 2})")
    db.execute("ALTER TABLE P ADD PRIMARY KEY(N)")
    rc, out = drive(db, "BEGIN\n"
                        "MATCH (a:P {N: 1}) SET a.N = 10\n"
                        "MATCH ()-[e:S]->() RETURN e, e.LEAVING\n"
                        "exit\n")
    assert rc == 0
    assert "|S(ID=3,LEAVING=10,ARRIVING=2)|10     |" in out


def test_repl_reports_arrays_stored_by_set_or_create_and_carries_on():
    db = Database()
    db.execute("CREATE (:P {N: 1})-[:S]->(:P {N: 2})-[:S]->(:P {N: 3})")
    rc, out = drive(db, "MATCH (a:P {N: 1}) [()-[e:S]->()]{1,2} (b) SET a.X = e\n"
                        "MATCH (a:P {N: 1}) [()-[:S]->(m)]{1,2} (b) THEN CREATE (:Z {X: m}) END\n"
                        "MATCH (p:P) RETURN p.N\n"
                        "exit\n")
    assert rc == 0
    assert out.count("error: X cannot hold an array") == 2
    assert "|3|" in out


def test_repl_renders_an_edge_staged_in_the_open_transaction_with_its_endpoint_keys():
    rc, out = drive(Database(), "BEGIN\n"
                                "CREATE (:P {N: 1})-[:S {W: 5}]->(:P {N: 2})\n"
                                "MATCH ()-[e:S]->() RETURN e\n"
                                "exit\n")
    assert rc == 0
    assert "|S(ID=3,LEAVING=1,ARRIVING=2,W=5)|" in out


SQUARE = "MATCH (p:P {K: 'a'}) SET p.N = p.N * p.N\n"


@pytest.mark.parametrize("setup, text", [
    ("", "RETURN " + "1" * 5000 + "\n"),
    ("", "RETURN " + "9" * 2500 + " * " + "9" * 2500 + "\n"),
    # 10 squared 12 times has 4,097 digits, squared once more 8,193
    ("CREATE (:P {K: 'a', N: 10})\n" + SQUARE * 12, SQUARE),
], ids=["literal", "product", "stored square"])
def test_repl_reports_integers_past_the_digit_limit_and_carries_on(setup, text):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        rc, out = drive(Database(), setup + text + "RETURN 'after'\nquit\n")
    finally:
        sys.set_int_max_str_digits(limit)
    assert rc == 0
    assert out.count("error:") == 1
    assert out.index("error:") < out.index("|after")


def test_a_decimal_overflow_is_an_error_line_not_a_traceback():
    """Squaring 10.5 over and over passes the decimal context's largest
    exponent; the shell reports that as an error and reads on."""
    text = "CREATE (:P {K: 'a', N: 10.5})\n" + "MATCH (p:P {K: 'a'}) SET p.N = p.N * p.N\n" * 25
    rc, out = drive(Database(), text)
    assert rc == 0
    replies = [line for line in out.splitlines() if line.strip() != "SQL>"]
    assert replies[-1] == "SQL> error: decimal Overflow in *"
    assert all(line.endswith("error: decimal Overflow in *")
               for line in replies if "error" in line)


def test_main_serves_the_http_view_for_as_long_as_the_shell_runs(monkeypatch, capsys):
    """`--http 0` serves on a port the system picks; the shell's statements
    are read from stdin, and the server closes when the shell ends."""
    import json
    import socket
    import urllib.request
    from graphtables import httpd
    servers, fetched = [], []
    serve_in_thread = httpd.serve_in_thread
    monkeypatch.setattr(httpd, "serve_in_thread",
                        lambda db, port: servers.append(serve_in_thread(db, port)) or servers[-1])

    class Stdin:
        lines = iter(["CREATE (:P {N: 7})\n", None, "exit\n"])

        def readline(self):
            line = next(self.lines)
            if line is None:   # the shell is between statements: fetch through the view
                url = f"http://127.0.0.1:{servers[0].server_address[1]}/memory/r/P/N=7?NODE"
                with urllib.request.urlopen(url, timeout=5) as resp:
                    fetched.append(json.loads(resp.read()))
                return "MATCH (a:P) RETURN a.N\n"
            return line

    monkeypatch.setattr(sys, "stdin", Stdin())
    assert main([":memory:", "--http", "0"]) == 0
    assert [node["properties"]["N"] for node in fetched[0]["nodes"]] == [7]
    assert "|N|" in capsys.readouterr().out
    with pytest.raises(OSError):
        socket.create_connection(servers[0].server_address, timeout=1).close()
