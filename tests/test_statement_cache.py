"""The statement template cache: texts of one template key share a parsed
template and run with their own literal values, and a cached run behaves
exactly like a fresh parse of the same text."""

import contextlib
import random
import sys
import threading

import pytest

from graphtables import engine
from graphtables.engine import Database
from graphtables.errors import ExecutionError, GraphTablesError
from graphtables.errors import LexError
from graphtables.lexer import LITERAL_TYPES, split
from graphtables.parser import parse_statement, tokenize


def shape(tokens):
    """The token shape of a token stream and its literal values in slot
    order: each literal as its kind, an int right after `{` or `,` (a
    quantifier bound) as (kind, value); any other token as its value, or as
    the 1-tuple of its spelling when quoted.  Texts of one `lexer.split` key
    must have one token shape."""
    key, values = [], []
    prev = None
    for t in tokens:
        if t.type in LITERAL_TYPES:
            key.append((t.type, t.value) if t.type == "int" and prev in ("{", ",") else t.type)
            values.append(t.value)
        else:
            key.append((t.value,) if t.exact else t.value)
        prev = t.type
    return tuple(key), tuple(values)


def run_fresh(session, text):
    """What `Session.execute` does, with a parse of every text."""
    tokens = tokenize(text)
    _key, params = shape(tokens)
    try:
        return session.execute_statement(parse_statement(text, tokens), params)
    except RecursionError:
        raise ExecutionError("statement nests too deeply") from None


def outcome(run, text):
    """A comparable record of running `text`: the result table, or the
    error's class, message and source position."""
    try:
        result = run(text)
    except GraphTablesError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "col", None))
    return None if result is None else (result.columns, result.rows)


def differential(texts, cached_db, fresh_db):
    cached, fresh = cached_db.session(), fresh_db.session()
    for text in texts:
        got = outcome(cached.execute, text)
        want = outcome(lambda t: run_fresh(fresh, t), text)
        assert got == want, text
    assert cached_db.state_hash() == fresh_db.state_hash()


SCHEMA = [
    "CREATE TYPE N AS (K INT, V INT, S CHAR, D DATE, C CURRENCY, F BOOL) NODETYPE",
    "ALTER TABLE N ADD PRIMARY KEY (K)",
    "CREATE TYPE E AS (W INT) EDGETYPE (LEAVING N, ARRIVING N)",
]
CHAIN = [f"CREATE (:N {{K: {k}, V: {10 * k}, S: 's{k}'}})" for k in range(-6, 8)] + [
    f"MATCH (a:N {{K: {k}}}), (b:N {{K: {k + 1}}}) CREATE (a)-[:E {{W: {k}}}]->(b)"
    for k in range(0, 7)]


def twice_each(*texts):
    """Run the first text until its shape is cached, then the others."""
    first, *rest = texts
    return [first, first, first, *rest, *rest, first]


# each pair is one token shape with two value sets; the second text must
# not run with the first text's values where the parser read them
FIXED_PAIRS = [
    ("MATCH (a:N {K: 0}) [()-[:E]->()]{1,3} (b) RETURN b.K",
     "MATCH (a:N {K: 0}) [()-[:E]->()]{2,3} (b) RETURN b.K"),
    ("MATCH (a:N {K: 0}) [()-[:E]->()]{1,2} (b) RETURN b.K",
     "MATCH (a:N {K: 0}) [()-[:E]->()]{3,2} (b) RETURN b.K"),
    ("ALTER TABLE N ADD COLUMN X CHAR(5)", "ALTER TABLE N DROP COLUMN X",
     "ALTER TABLE N ADD COLUMN X CHAR(9)"),
    ("ALTER TYPE E SET CARDINALITY LEAVING 0..1 ARRIVING 0..*",
     "ALTER TYPE E SET CARDINALITY LEAVING 1..1 ARRIVING 1..*",
     "ALTER TYPE E SET CARDINALITY LEAVING 1..* ARRIVING 0..*"),
    ("MATCH (a:N {K: 1}) RETURN a.V + 1", "MATCH (a:N {K: 1}) RETURN a.V+2",
     "MATCH (a:N {K: 1}) RETURN a.V  +  3"),
    ("MATCH (a:N {K: -5}) RETURN a.K, a.V", "MATCH (a:N {K: -6}) RETURN a.K, a.V",
     "MATCH (a:N {K: - -5}) RETURN a.K", "MATCH (a:N {K: - - 6}) RETURN a.K"),
    ("MATCH (a:N) RETURN a.K", '"MATCH" (a:N) RETURN a.K', '"match" (a:N) RETURN a.K'),
    ("MATCH (a:N {K: 2}) SET a.F = TRUE", "MATCH (a:N {K: 2}) SET a.F = NULL",
     "MATCH (a:N {F: TRUE}) RETURN a.K", "MATCH (a:N {F: NULL}) RETURN a.K"),
    ("MATCH (a:N {K: 3}) SET a.D = DATE'2023-03-22', a.C = 12.50€",
     "MATCH (a:N {K: 4}) SET a.D = DATE'2024-01-02', a.C = 7€",
     "MATCH (a:N {D: DATE'2024-01-02'}) RETURN a.K, a.C",
     "MATCH (a:N {K: 4}) SET a.C = -7€", "MATCH (a:N {K: 4}) SET a.C = 7$"),
    ("MATCH (a:N {K: 5}) SET a.S = 'O''Hara'", "MATCH (a:N {S: 'O''Hara'}) RETURN a.K",
     "MATCH (a:N {S: 'nobody'}) RETURN a.K"),
    ("MATCH (a:N {K: 6}) SET a.V = a.V / 4", "MATCH (a:N {K: 6}) SET a.V = a.V / 0"),
]


@pytest.mark.parametrize("texts", FIXED_PAIRS, ids=lambda t: t[0][:40])
def test_cached_run_matches_a_fresh_parse(texts):
    differential(SCHEMA + CHAIN + twice_each(*texts), Database(), Database())


def test_check_text_of_each_statement_is_stored_and_replayed(tmp_path):
    cached_db, fresh_db = Database(tmp_path / "cached.db"), Database(tmp_path / "fresh.db")
    texts = twice_each("ALTER TABLE N ADD CHECK (V > 5)", "ALTER TABLE N ADD CHECK (V > 7)",
                       "ALTER TABLE N ADD CHECK (V>7 )",
                       "MATCH (a:N {K: 1}) SET a.V = 6", "MATCH (a:N {K: 1}) SET a.V = 8")
    differential(SCHEMA + ["CREATE (:N {K: 1, V: 9})"] + texts, cached_db, fresh_db)
    for db in (cached_db, fresh_db):
        db.close()
    reopened = [Database(tmp_path / "cached.db"), Database(tmp_path / "fresh.db")]
    checks = [[c.text for c in db.catalog.lookup_label("N").constraints] for db in reopened]
    assert checks[0] == checks[1] == ["V > 5", "V > 5", "V > 5", "V > 7", "V>7",
                                      "V > 7", "V>7", "V > 5"]
    assert reopened[0].state_hash() == reopened[1].state_hash()
    for db in reopened:
        db.close()


def test_deep_nesting_is_an_execution_error_cached_or_not():
    deep_sum = "MATCH (a:N {K: 1}) SET a.V = " + "+".join(["1"] * 3000)
    deep_parens = "MATCH (a:N {K: 1}) SET a.V = " + "(" * 3000 + "1" + ")" * 3000
    texts = SCHEMA + CHAIN + [deep_sum] * 4 + [deep_parens] * 3
    cached_db, fresh_db = Database(), Database()
    differential(texts, cached_db, fresh_db)
    with pytest.raises(ExecutionError, match="nests too deeply"):
        cached_db.execute(deep_sum.replace("+1", "+2", 1))
    with pytest.raises(ExecutionError, match="nests too deeply"):
        cached_db.execute(deep_parens)


def test_a_negative_literal_in_a_doc_is_an_index_probe(monkeypatch):
    from graphtables import storage
    db = Database()
    for text in SCHEMA + CHAIN:
        db.execute(text)
    probes = []

    def no_scan(*args, **kwargs):
        raise AssertionError("a doc literal must not scan its type")

    lookup = storage.ReadView.lookup_by_value
    monkeypatch.setattr(storage.ReadView, "scan_type", no_scan)
    monkeypatch.setattr(storage.ReadView, "lookup_by_value",
                        lambda self, tids, column, value: probes.append(value) or
                        lookup(self, tids, column, value))
    for k in (5, 6, 5, 4):
        assert db.execute(f"MATCH (a:N {{K: -{k}}}) RETURN a.V").rows == [[-10 * k]]
    assert probes == [-5, -6, -5, -4]


def test_a_thousand_statements_of_five_shapes_parse_a_few_times(monkeypatch):
    db = Database()
    for text in SCHEMA + CHAIN:
        db.execute(text)
    parses = []
    parse = engine.parse_statement
    monkeypatch.setattr(engine, "parse_statement",
                        lambda text, tokens=None: parses.append(text) or parse(text, tokens))
    rng = random.Random(8)
    shapes = ["CREATE (:N {{K: {0}, V: {1}}})",
              "MATCH (a:N {{K: {0}}}) SET a.V = a.V + {1}",
              "MATCH (a:N {{K: {0}}})-[:E]->(b) RETURN b.K, b.V",
              "MATCH (a:N {{K: {0}}}) WHERE a.V > {1} RETURN a.S",
              "MATCH (a:N {{K: {0}}}) DELETE a CASCADE"]
    for i in range(1000):
        db.execute(shapes[i % 5].format(100 + i // 5, rng.randrange(100)))
    assert len(parses) <= 10


def test_one_off_shapes_are_not_kept():
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    for k in range(1, 60):
        db.execute("CREATE " + ", ".join(f"(:N {{K: {k * 1000 + j}}})" for j in range(k)))
    assert len(db._templates) == 0
    db.execute("CREATE (:N {K: -1})")
    db.execute("CREATE (:N {K: -2})")
    assert len(db._templates) == 1


def test_the_number_of_templates_is_bounded():
    db = Database()
    for text in SCHEMA:
        db.execute(text)
    for _ in range(2):
        for k in range(engine._TEMPLATES + 40):
            db.execute("MATCH (a:N {K: 1}) RETURN a.K" + ", a.V" * k)
    assert len(db._templates) == engine._TEMPLATES


def test_threads_sharing_a_database_get_their_own_values(monkeypatch):
    """Sessions on several threads admit, evict and hit templates of one
    Database at once; every statement must still see its own literals."""
    db = Database()
    for text in SCHEMA + CHAIN:
        db.execute(text)
    monkeypatch.setattr(engine, "_TEMPLATES", 3)
    shapes = ["MATCH (a:N {{K: {0}}}) RETURN a.V",
              "MATCH (a:N) WHERE a.K = {0} RETURN a.V",
              "MATCH (a:N {{K: {0}}}) RETURN a.V, a.K",
              "MATCH (a:N {{S: 's{0}'}}) RETURN a.V",
              "MATCH (a:N {{K: -{0}}}) RETURN -a.V",
              "MATCH (a:N {{K: {0}}})-[:E]->(b) RETURN a.V"]
    errors = []

    def worker(seed):
        rng, session = random.Random(seed), db.session()
        try:
            for _ in range(300):
                i, k = rng.randrange(len(shapes)), rng.randrange(0, 7)
                rows = session.execute(shapes[i].format(k)).rows
                if rows[0][0] != 10 * k:
                    errors.append((shapes[i].format(k), rows))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(db._templates) <= 3


# --- seeded random streams ---

def random_statement(rng) -> str:
    k = rng.randrange(-6, 9)
    v = rng.choice([0, 1, 7, -3, 40, "2.5", "-1.25", "'x'", "TRUE", "NULL"])
    sp = rng.choice(["", " ", "  "])
    lo = rng.randrange(0, 4)
    forms = [
        f"CREATE (:N {{K: {rng.randrange(20, 60)}, V: {v}}})",
        f"MATCH (a:N {{K: {k}}}) SET a.V ={sp}{v}",
        f"MATCH (a:N {{K: {k}}}) SET a.V = a.V +{sp}{v}",
        f"MATCH (a:N {{K: {k}}}) RETURN a.V, a.S",
        f"MATCH (a:N {{K: {k}}}) RETURN a.V{sp}*{sp}{rng.randrange(1, 4)}",
        f"MATCH (a:N) WHERE a.V > {v} RETURN a.K",
        f"MATCH (a:N {{V: {v}}}) RETURN a.K",
        f"MATCH (a:N {{K: -{abs(k)}}}) RETURN a.K",
        f"MATCH (a:N {{K: {k}}}) [()-[:E]->()]{{{lo},{lo + rng.randrange(-1, 3)}}} (b) RETURN b.K",
        f"MATCH (a:N {{K: {k}}})-[e:E]->(b) RETURN e.W, b.K",
        f"MATCH (a:N {{K: {k}}}), (b:N {{K: {k + 1}}}) CREATE (a)-[:E {{W: {v}}}]->(b)",
        f"MATCH (a:N {{K: {k}}}) DELETE a CASCADE",
        f"MATCH (a:N {{S: 's{k}'}}) SET a.S = 's{rng.randrange(9)}'",
        f"MATCH (a:N {{K: {k}}}) SET a.D = DATE'2020-0{rng.randrange(1, 10)}-1{lo}'",
        f"ALTER TYPE E SET CARDINALITY LEAVING {lo}..{lo + 1} ARRIVING 0..*",
        f"MATCH (a:N {{K: {k}}}) RETURN {v}",
        "BEGIN", "COMMIT", "ROLLBACK",
    ]
    return rng.choice(forms)


@pytest.mark.parametrize("seed", range(4))
def test_random_streams_match_a_fresh_parse(seed):
    rng = random.Random(4100 + seed)
    texts = SCHEMA + CHAIN
    for _ in range(300):
        text = random_statement(rng)
        texts += [text] * rng.choice([1, 1, 2])
    differential(texts, Database(), Database())


# --- the split key against the token-built reference ---

FRAGMENTS = ["MATCH", "match", "(a:N {K: ", "})", "-[:E]->", "<-[e:E]-", "(b)", "RETURN", "a.V",
             ",", "[()-[:E]->()]{", "1,3}", "{0,", "2}", "]->", "-[", "]-", "..", "0..*",
             "1..1", "=", "<>", "!=", "<=", ">=", "+", "-", "*", "/", "?", ";", ":", ".",
             "-5", "- 7", "-2.50", "12", "007", "3.25", "0.5", "12.50€", "7€", "3$", "1.5£",
             "date'2023-03-22'", "DATE'2024-01-02'", "DaTe'2020-02-29'", "'s'", "''",
             "'O''Hara'", "'two\nlines'", '"N"', '"match"', '"say ""hi"""', '""',
             '"Sum€"', "TRUE", "NULL", "_x1", "WHERE"]
SEPARATORS = ["", " ", "  ", "\t", "\n", "\r\n", " // note\n", "//x\r\n", "\n\n  "]
HAND_CASES = [
    "MATCH (a:N {K: 1}) RETURN a.V // trailing comment with no newline",
    "//", "// only a comment\r\n", "", "   ", "\r\n",
    "MATCH (a:N {D: dAtE'2023-03-22'}) SET a.C = 12.50€, a.U = 3$, a.G = 0.5£",
    "MATCH (a:N {S: 'it''s'}) RETURN a.\"odd \"\"name\"\"\"",
    "MATCH (a:N {K: 0}) [()-[:E]->()]{1,3} (b) RETURN b.K",
    "MATCH (a:N {K: 0}) [()<-[:E]-()]{2,} (b), (c)-[:E]->(d) RETURN {1, 2}",
    "ALTER TYPE E SET CARDINALITY LEAVING 0..1 ARRIVING 1..*",
    "MATCH (a:N {K: -5}) SET a.V = - -3.75 - a.V",
    "MATCH (a:N)\r\n  WHERE a.K >= 2 // two\r\n  RETURN a.K;",
]
# a literal of each kind, to put in place of a text's literals
OTHER_LITERALS = {"int": ["0", "3", "12", "4000"], "decimal": ["0.5", "17.25"],
                  "currency": ["1€", "2.50$", "0.1£"], "string": ["''", "'q''r'", "'//'"],
                  "date": ["DATE'2021-05-06'", "date'1999-12-31'"]}


def random_text(rng) -> str:
    return "".join(rng.choice(FRAGMENTS) + rng.choice(SEPARATORS)
                   for _ in range(rng.randrange(1, 25)))


def glued_name_and_quote(tokens) -> bool:
    """Whether an unquoted name ends where a single-quoted literal starts."""
    return any(t.type == "ident" and not t.exact and t.end == u.start and u.text[:1] == "'"
               for t, u in zip(tokens, tokens[1:]))


def assert_split_matches_tokens(text, shapes: dict) -> bool:
    """Check `split(text)` against `text`'s tokens, and that a key met
    before in `shapes` had the same token shape; whether the text split."""
    try:
        keyed = split(text)
    except LexError as exc:   # a literal the split converts is as bad as tokenize finds it
        with pytest.raises(LexError) as again:
            tokenize(text)
        assert (str(again.value), again.value.line, again.value.col) == \
            (str(exc), exc.line, exc.col)
        return False
    if keyed is None:   # the split stops only where tokenize fails or on a glued name
        try:
            tokens = tokenize(text)
        except LexError:
            return False
        assert glued_name_and_quote(tokens), text
        return False
    key, values = keyed
    tokens = tokenize(text)
    token_shape, token_values = shape(tokens)
    assert values == token_values, text
    assert shapes.setdefault(key, token_shape) == token_shape, text
    rebuilt = [(t.type, t.value, t.start, t.end, t.line, t.col) for t in tokenize(text, values)]
    assert rebuilt == [(t.type, t.value, t.start, t.end, t.line, t.col) for t in tokens]
    return True


def other_literals(text, rng) -> str:
    """`text` with each literal token replaced by another of its kind."""
    parts, at = [], 0
    for t in tokenize(text):
        if t.type in LITERAL_TYPES:
            parts += [text[at:t.start], rng.choice(OTHER_LITERALS[t.type])]
            at = t.end
    return "".join(parts) + text[at:]


@pytest.mark.parametrize("text", HAND_CASES)
def test_the_one_pass_key_equals_the_token_key_by_hand(text):
    """Each hand case splits, and so does a sibling with other literals; if
    the two share a key, they share a token shape."""
    shapes = {}
    assert assert_split_matches_tokens(text, shapes)
    assert assert_split_matches_tokens(other_literals(text, random.Random(text)), shapes)


def test_the_one_pass_key_equals_the_token_key_on_generated_texts():
    """Over generated texts and a sibling of each with other literals,
    texts of one split key have one token shape, the split's values are the
    tokens' values, and the split stops only where tokenize fails or on a
    name glued to a quote."""
    rng = random.Random(1717)
    shapes, keyed, shared = {}, 0, 0
    for _ in range(3000):
        text = random_text(rng)
        if assert_split_matches_tokens(text, shapes):
            keyed += 1
            sibling = other_literals(text, rng)
            assert assert_split_matches_tokens(sibling, shapes), sibling
            shared += split(sibling)[0] == split(text)[0]
    assert keyed > 2800 and shared > 800


def test_bounds_key_by_value_and_other_literals_by_kind():
    one, two, three = (split(f"MATCH (a {{K: {k}}}) [()-[:E]->()]{{{k},3}} (b)")
                       for k in (1, 2, 1))
    assert one[0] == three[0] != two[0]
    assert ("int", 1) in one[0] and ("int", 3) in one[0] and one[1] == (1, 1, 3)
    assert split("RETURN 'a'")[0] == split("RETURN 'b'")[0] == ("RETURN ", "string", "")
    assert split('"match"')[0] == ('"match"',) != split("match")[0]


@pytest.mark.parametrize("text, message, line, col", [
    ("MATCH (a {S: 'open", "unterminated literal", 1, 14),
    ('RETURN "open', "unterminated literal", 1, 8),
    ("MATCH (a)\r\n RETURN @", "unexpected character '@'", 2, 9),
    ("RETURN 1 // fine\n  #", "unexpected character '#'", 2, 3),
    ("RETURN 1 // it's\n#'", "unexpected character '#'", 2, 1),   # no string from a comment
    ("RETURN 1 //'\n#'", "unexpected character '#'", 2, 1),
    ("RETURN 1 % 2", "unexpected character '%'", 1, 10),
    ("RETURN 1 ! 2 DATE'2023-13-99'", "unexpected character '!'", 1, 10),
    ('RETURN 1 //"\n@"', "unexpected character '@'", 2, 1),   # no quoted name from a comment
    ("RETURN 'a\nb' DATE'2023-13-99'", "bad date literal '2023-13-99'", 2, 4),
    ("RETURN\n  " + "9" * 5000, "5000-digit integer is too long", 2, 3),
    # long runs of blanks, comments and names before an error are backed off in linear time
    pytest.param("RETURN 1" + " " * 5000 + "@", "unexpected character '@'", 1, 5009,
                 id="5000-blanks-then-bad-character"),
    pytest.param("RETURN" + "\n" * 3000 + " " * 3000 + "'open", "unterminated literal",
                 3001, 3001, id="6000-blanks-then-unterminated"),
    pytest.param("RETURN 1" + " \r\n// c\n" * 2000 + "%", "unexpected character '%'",
                 4001, 1, id="2000-comments-then-bad-character"),
    pytest.param("RETURN " + "x" * 5000 + "@", "unexpected character '@'", 1, 5008,
                 id="5000-character-name-then-bad-character"),
    pytest.param('RETURN "a' + '""' * 30 + '" @', "unexpected character '@'", 1, 72,
                 id="30-doubled-quotes-then-bad-character"),
])
def test_lex_errors_keep_their_message_and_position(text, message, line, col):
    with contextlib.suppress(LexError):   # a bad literal raises as the statement does
        assert split(text) is None
    for run in (Database().statement, tokenize):
        with pytest.raises(LexError) as err:
            run(text)
        assert (str(err.value), err.value.line, err.value.col) == (
            f"line {line}:{col}: {message}", line, col)


# --- one match plan per template and published catalog ---

def test_a_template_plans_once_per_published_catalog(monkeypatch):
    from graphtables import matcher
    db = Database()
    for text in SCHEMA + CHAIN:
        db.execute(text)
    plans = []

    class CountedPlan(matcher.Plan):
        def __init__(self, stmt, catalog):
            plans.append(catalog)
            super().__init__(stmt, catalog)

    monkeypatch.setattr(matcher, "Plan", CountedPlan)
    read = "MATCH (a:N {{K: {0}}}) RETURN a.K, a.V"
    db.execute(read.format(100))   # a first sighting is parsed, planned and let go
    plans.clear()
    for k in range(100):
        assert db.execute(read.format(k % 7)).rows == [[k % 7, 10 * (k % 7)]]
    template = db._templates[split(read.format(1))[0]]
    assert plans == [db.catalog] and template.plan[0].catalog is db.catalog

    db.session().execute("ALTER TABLE N ADD COLUMN X INT")
    for k in range(100):
        db.execute(read.format(k % 7))
    assert plans == [plans[0], db.catalog] and plans[0] is not db.catalog

    # a transaction's own catalog plans privately; the template keeps the published plan
    published, session = template.plan[0], db.session()
    session.execute("BEGIN")
    session.execute("CREATE TYPE M UNDER N AS (W INT)")
    session.execute("CREATE (:M {K: 100, V: 1})")
    assert session.execute(read.format(100)).rows == [[100, 1]]
    assert len(plans) == 3 and plans[-1] is session.tx.catalog is not db.catalog
    assert template.plan[0] is published
    session.execute("ROLLBACK")
    assert db.execute(read.format(100)).rows == []
    assert len(plans) == 3 and template.plan[0] is published and published.catalog is db.catalog


def test_a_text_the_split_stops_on_yet_parses_runs_uncached_with_its_own_literals():
    """A name glued to a quote (`TO'bob'`, `NOT'a'`) stops `split`; the text
    is tokenized, parsed and run, its literal values read off its tokens."""
    db = Database()
    for text, rows in (("GRANT R TO'bob'", None), ("RETURN NOT'a' = 'b'", [[True]]),
                       ("RETURN NOT'a' = 'a'", [[False]]), ("RETURN NOT'a' = 'a'", [[False]])):
        assert split(text) is None
        result = db.execute(text)
        assert (result if result is None else result.rows) == rows
    assert len(db._templates) == 0


def test_the_remembered_sightings_are_forgotten_at_their_bound(monkeypatch):
    """A shape is kept on its second sighting; once `_SIGHTINGS` keys are
    remembered, they are all forgotten, so a shape seen before needs two
    more."""
    monkeypatch.setattr(engine, "_SIGHTINGS", 2)
    db = Database()
    db.execute("CREATE (:N {K: 1})")
    shapes = ["MATCH (a:N {K: 1}) RETURN a.K" + ", a.K" * k for k in range(3)]
    for text in shapes:
        db.execute(text)
    first = split(shapes[0])[0]
    db.execute(shapes[0])
    assert first not in db._templates
    db.execute(shapes[0])
    assert first in db._templates


def test_a_result_table_shows_its_columns_and_row_count():
    assert repr(Database().execute("RETURN 1, 'x'")) == "ResultTable(['1', \"'x'\"], 1 rows)"
