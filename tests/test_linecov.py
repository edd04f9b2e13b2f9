"""`linecov.UNTESTED`, the lines the line tracer (`tests/linecov.py`) leaves
untested on purpose, stays short, reasoned and in step with the code."""

import linecov


def test_every_untested_entry_names_an_in_function_line_of_its_module():
    assert len(linecov.UNTESTED) <= 8
    for module, text, reason in linecov.UNTESTED:
        at = [i for i, line in enumerate(linecov.source_lines(module), 1) if line.strip() == text]
        assert at, f"{module}: no line reads {text!r}"
        assert set(at) <= linecov.counted_lines(linecov.PACKAGE / module), (module, text)
        assert len(reason.split()) >= 5, (module, text)


def test_only_lines_that_a_call_runs_are_counted(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "X = [n for n in range(3)]\n"         # 1: module body, with a comprehension
        "class C:\n"                           # 2
        "    Y = 1\n"                          # 3: class body
        "    def f(self):\n"                   # 4
        "        return [n for n in X]\n"      # 5: a method and its comprehension
        "g = lambda: 1\n"                      # 6: a lambda's body
        "def h():\n"                           # 7
        "    try:\n"                           # 8
        "        pass\n"                       # 9
        "    except ValueError:\n"             # 10
        "        return 2\n")                  # 11
    # a def line counts where the interpreter gives it code (3.11 does)
    assert {5, 6, 8, 9, 10, 11} <= linecov.counted_lines(source) <= {4, 5, 6, 7, 8, 9, 10, 11}


def test_an_entry_naming_an_except_clause_stands_for_its_body():
    engine = linecov.source_lines("engine.py")
    handler = next(i for i, line in enumerate(engine, 1) if line.strip() == "except RecursionError:")
    lines = linecov.entry_lines("engine.py", "except RecursionError:")
    raised = engine.index('            raise ExecutionError("statement nests too deeply") from None') + 1
    assert min(lines) == handler and raised == max(lines)
