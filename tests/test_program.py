import hashlib
import random

import pytest

from aspback import (GenConfig, ParseError, Program, ProgramBuilder, Rule,
                     TargetClass, child_seed, core, in_target_class,
                     parse_program, random_program, render_program,
                     render_rule)

from conftest import EX1_TEXT, program_sigs


def test_parse_ex1_atom_table_order(ex1):
    assert [ex1.atom_name(i) for i in range(ex1.n_atoms)] == \
        ["s", "w", "u", "q", "r", "t"]
    assert ex1.n_atoms == 6
    assert len(ex1.rules) == 6


def test_parse_rule_parts(ex1, ex1_ids):
    i = ex1_ids
    r = ex1.rules[5]  # w :- not r, u.
    assert r.head == frozenset({i["w"]})
    assert r.pos_body == frozenset({i["u"]})
    assert r.neg_body == frozenset({i["r"]})


def test_parse_disjunction_and_constraint():
    p = parse_program("a | b :- c.  :- a, b.")
    assert len(p.rules) == 2
    assert len(p.rules[0].head) == 2
    assert p.rules[1].head == frozenset()


def test_parse_fact_and_empty_program():
    p = parse_program("a.")
    assert p.rules[0].pos_body == frozenset()
    empty = parse_program("")
    assert empty.n_atoms == 0 and empty.rules == ()


def test_parse_comments_and_whitespace():
    p = parse_program("% header\na :- b. % trailing\n\n  c.\n")
    assert p.n_atoms == 3
    assert len(p.rules) == 2


def test_parse_duplicate_literals_counted():
    p = parse_program("a :- b, b.")
    assert p.duplicate_literals == 1
    assert p.rules[0].pos_body == frozenset({p.atom_id("b")})


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_program("a :- b")
    assert e.value.line == 1
    with pytest.raises(ParseError):
        parse_program("a :- .")
    with pytest.raises(ParseError):
        parse_program("| a.")
    with pytest.raises(ParseError):
        parse_program("a :- not not b.")
    with pytest.raises(ParseError):
        parse_program("a ; b.")


# (text, message, line, col) of every ParseError here, recorded from the
# character-by-character tokenizer that the one-regex scan replaced.  A bad
# character anywhere wins over an earlier grammar error; only space, tab, CR
# and LF are whitespace; EOF after a trailing comment sits at the '%'.
PARSE_ERRORS = (
    ("a :- . 1", "unexpected character '1'", 1, 8),
    ("a.\fb.", "unexpected character '\\x0c'", 1, 3),
    ("a.\vb.", "unexpected character '\\x0b'", 1, 3),
    ("a.\xa0b.", "unexpected character '\\xa0'", 1, 3),
    ("\ufeffa.", "unexpected character '\\ufeff'", 1, 1),
    ("a :- b % x", "expected '.', got end of input", 1, 8),
    ("a :- b\r\n", "expected '.', got end of input", 2, 1),
    ("a\tb.", "expected '.', got 'b'", 1, 3),
    ("a :- not not b.", "expected atom, got 'not'", 1, 10),
    ("not.", "expected rule, got 'not'", 1, 1),
    ("a | .", "expected atom, got '.'", 1, 5),
    ("a :- b,", "expected atom, got end of input", 1, 8),
    ("x :- y\xa0.", "unexpected character '\\xa0'", 1, 7),
    ("a :- b", "expected '.', got end of input", 1, 7),
    ("a :- .", "empty body after ':-'", 1, 6),
    ("| a.", "expected rule, got '|'", 1, 1),
    ("a ; b.", "unexpected character ';'", 1, 3),
    ("a :-\n", "expected atom, got end of input", 2, 1),
    ("a :- not.", "expected atom, got '.'", 1, 9),
    ("a | not.", "expected atom, got 'not'", 1, 5),
    ("a :- b c.", "expected '.', got 'c'", 1, 8),
    (":- .", "empty body after ':-'", 1, 4),
    ("a.\n\n  b :- 1c.", "unexpected character '1'", 3, 8),
    ("a :- b :- c.", "expected '.', got ':-'", 1, 8),
    ("a. . b.", "expected rule, got '.'", 1, 4),
    ("a :- b. % x\n  c", "expected '.', got end of input", 2, 4),
    ("a :- b % x\n%y", "expected '.', got end of input", 2, 1),
    ("p(x).", "unexpected character '('", 1, 2),
    ("a - b.", "unexpected character '-'", 1, 3),
    ("a : b.", "unexpected character ':'", 1, 3),
    ("a.\r\nb", "expected '.', got end of input", 2, 2),
    ("\xe9.", "unexpected character '\xe9'", 1, 1),
    ("a :- b.\n\tc d.", "expected '.', got 'd'", 2, 4),
    ("a, b.", "expected '.', got ','", 1, 2),
    (":-", "expected atom, got end of input", 1, 3),
    ("a. 'b.", "unexpected character \"'\"", 1, 4),
    ("a :- b,\n\n", "expected atom, got end of input", 3, 1),
    ("a | b :- not c, d\n% end", "expected '.', got end of input", 2, 1),
    ("x :- y.\ny :- not\n", "expected atom, got end of input", 3, 1),
)


@pytest.mark.parametrize("text,message,line,col", PARSE_ERRORS)
def test_parse_error_table(text, message, line, col):
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert (e.value.message, e.value.line, e.value.col) == (message, line, col)
    assert str(e.value) == f"line {line}, col {col}: {message}"


def test_parse_interns_head_then_positive_then_negative():
    # not text order: the negative literal comes first in the text
    p = parse_program("b :- not a, c.")
    assert p.atom_names == ("b", "c", "a")


MUTATION_PIECES = (".", ",", "|", ":-", "%", "not", "\t", "\f", "\n")


def _mutants(count):
    """Rendered random programs with one to three pieces inserted or deleted."""
    rng = random.Random(2788)
    for i in range(count):
        cfg = GenConfig(n_atoms=rng.randint(2, 8), density=rng.choice((0.5, 1.0, 2.0)),
                        body_len=1, seed=child_seed(2788, i))
        text = render_program(random_program(cfg))
        for _ in range(rng.randint(1, 3)):
            piece = rng.choice(MUTATION_PIECES)
            if rng.random() < 0.5:
                at = rng.randint(0, len(text))
                text = text[:at] + piece + text[at:]
            else:
                spots = [i for i in range(len(text)) if text.startswith(piece, i)]
                if spots:
                    at = rng.choice(spots)
                    text = text[:at] + text[at + len(piece):]
        yield text


def _outcome(text):
    try:
        p = parse_program(text)
    except ParseError as e:
        return "error " + str(e)
    rules = [(sorted(r.head), sorted(r.pos_body), sorted(r.neg_body)) for r in p.rules]
    return repr((p.atom_names, rules, p.duplicate_literals))


def test_parse_outcomes_of_mutated_programs_are_pinned():
    # the sha256 of every outcome (the Program with its duplicate count, or
    # the ParseError text), recorded from the character-by-character tokenizer
    outcomes = [_outcome(t) for t in _mutants(3000)]
    errors = sum(o.startswith("error ") for o in outcomes)
    assert 500 <= errors <= 2500
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "9c39b652b13748b37746b486e7f8bc53145061207a08c65e39b492b17eef0ecb"


def test_not_is_reserved():
    with pytest.raises(ParseError):
        parse_program("not.")


def test_render_roundtrip_ex1(ex1):
    again = parse_program(render_program(ex1))
    assert again == ex1
    assert program_sigs(again) == program_sigs(ex1)


def test_render_sorted_by_id():
    p = parse_program("a :- c, b, not d.")
    assert render_rule(p, p.rules[0]) == "a :- c, b, not d."
    # interning order a,c,b,d: body prints positives by id then negatives
    q = parse_program("x :- b, a.")
    assert render_rule(q, q.rules[0]) == "x :- b, a."


def test_render_constraint_and_fact():
    p = parse_program(":- a.  b.")
    assert render_program(p) == ":- a.\nb.\n"


def test_rule_flags_classification():
    p = parse_program("a :- b.  a | c :- b.  :- b.  a :- not b.  a :- a, b.")
    assert [r.tautological for r in p.rules] == [False, False, False, False, True]


def test_tautological_via_neg_body():
    p = parse_program("a :- b, not b.")
    assert p.rules[0].tautological


def test_core_drops_tautologies_and_constraints():
    p = parse_program("a :- a.  :- b.  c :- d.")
    q = core(p)
    assert len(q.rules) == 1
    assert q.n_atoms == p.n_atoms  # atom table preserved
    assert core(q) == q


def test_in_target_class_horn():
    assert in_target_class(parse_program("a :- b.  b."), TargetClass.HORN)
    assert not in_target_class(parse_program("a :- not b."), TargetClass.HORN)
    # tautological and constraint rules are invisible to every class
    assert in_target_class(parse_program("a | b :- c, not c.  :- not d."),
                           TargetClass.HORN)


def test_in_target_class_acyclic():
    p = parse_program("a :- b.  b :- a.")
    assert not in_target_class(p, TargetClass.DC_ACYC)
    assert in_target_class(p, TargetClass.DC2_ACYC)  # good two-cycle allowed
    assert in_target_class(p, TargetClass.STRAT)
    q = parse_program("a :- not b.  b :- not a.")
    assert not in_target_class(q, TargetClass.STRAT)


def test_program_structural_equality():
    a = parse_program("a :- b.")
    b = parse_program("a :- b.")
    c = parse_program("a :- c.")
    assert a == b and hash(a) == hash(b)
    assert a != c
    # parse metadata does not affect equality
    d = parse_program("a :- b, b.")
    assert d == a


def test_with_rules_keeps_table(ex1):
    q = ex1.with_rules(ex1.rules[:2])
    assert q.n_atoms == ex1.n_atoms
    assert len(q.rules) == 2


def test_builder_interns_in_first_use_order():
    b = ProgramBuilder()
    b.add_rule(["z"], ["y"], ["x"])
    b.add_rule(["y"], [], [])
    p = b.build()
    assert [p.atom_name(i) for i in range(3)] == ["z", "y", "x"]


def test_occurring_atoms(ex1):
    assert ex1.occurring_atoms() == frozenset(range(6))
    p = Program(["a", "b"], [Rule(frozenset({0}), frozenset(), frozenset())])
    assert p.occurring_atoms() == frozenset({0})


def test_atom_lookup_errors(ex1):
    with pytest.raises(KeyError):
        ex1.atom_id("nope")
    assert not ex1.has_atom("nope")


DUPLICATE_LITERALS = (
    "a | a | b :- c, c, not d, not d.",
    "a | a.  :- b, b.  :- not c, not c, not c.",
    "a :- a, a, not a, not a.  b | b :- not b, b, b.",
)


def test_parsed_rule_parts_agree_with_rule_built_twin():
    # a parsed program reads its id tuples where a program built from the
    # same Rules reads their frozensets; every view must come out the same
    from aspback import BackdoorQuery, find_backdoor, horn_conflict_graph
    from aspback.program import CompiledProgram
    from test_detect import _golden_corpus
    # a rendered golden program with an all-empty rule (":-.") does not parse
    texts = [render_program(p) for p in _golden_corpus()]
    texts = [t for t in texts + list(_mutants(3000)) + list(DUPLICATE_LITERALS)
             if not _outcome(t).startswith("error ")]
    queries = [BackdoorQuery(TargetClass.HORN), BackdoorQuery(TargetClass.HORN, "deletion"),
               BackdoorQuery(TargetClass.STRAT, "deletion")]
    dups = 0
    for text in texts:
        p = parse_program(text)
        twin = Program(p.atom_names, parse_program(text).rules)
        dups += p.duplicate_literals
        assert render_program(p) == render_program(twin), text
        assert CompiledProgram(p).rules == CompiledProgram(twin).rules, text
        assert p.occurring_atoms() == twin.occurring_atoms(), text
        assert horn_conflict_graph(p) == horn_conflict_graph(twin), text
        for q in queries:
            assert find_backdoor(p, q) == find_backdoor(twin, q), (text, q)
        assert p == twin and hash(p) == hash(twin), text
    assert len(texts) > 1000 and dups >= 11


def test_parse_deduplicates_each_part():
    p = parse_program(DUPLICATE_LITERALS[0])
    assert p.duplicate_literals == 3
    a, b, c, d = map(p.atom_id, "abcd")
    assert p.rule_parts == (((a, b), (c,), (d,)),)
    # the first read of rules builds the Rules, which then replace the tuples
    (r,) = p.rules
    assert (r.head, r.pos_body, r.neg_body) == tuple(map(frozenset, ((a, b), (c,), (d,))))
    assert p.rule_parts is p.rules
