import hashlib
import random

import pytest

from aspback import (GenConfig, ParseError, Program, ProgramBuilder, Rule,
                     TargetClass, child_seed, core, in_target_class,
                     parse_program, random_program, render_program,
                     render_rule)
from aspback.program import CompiledProgram, atom_mask

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
    # bytes are decoded as UTF-8, and invalid UTF-8 is a ValueError
    assert parse_program(b"a.").rules == p.rules
    with pytest.raises(ValueError):
        parse_program(b"a\xff.")


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


def test_parse_empty_constraint():
    # ':-.' is the rule with no atoms, which render_rule writes; once a head
    # or a literal is read, ':-' still needs a body and ',' an atom
    for text in (":-.", ":- .", ":-\n.", ":- % c\n."):
        p = parse_program("a.\n" + text)
        assert p.rule_parts == (((0,), (), ()), ((), (), ()))
        assert render_program(p) == "a.\n:-.\n"
    for text, message in (("a :- .", "empty body after ':-'"),
                          (":- a, .", "expected atom, got '.'"),
                          (":- not .", "expected atom, got '.'")):
        with pytest.raises(ParseError, match=message):
            parse_program(text)


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


def test_program_rejects_bad_atom_table():
    with pytest.raises(ValueError, match="duplicate atom name"):
        Program(["a", "a"], [])
    with pytest.raises(ValueError, match="unknown atom id 1"):
        Program(["a"], [Rule(frozenset({1}), frozenset(), frozenset())])


def test_atom_lookup_errors(ex1):
    with pytest.raises(KeyError):
        ex1.atom_id("nope")
    assert not ex1.has_atom("nope")


DUPLICATE_LITERALS = (
    "a | a | b :- c, c, not d, not d.",
    "a | a.  :- b, b.  :- not c, not c, not c.",
    "a :- a, a, not a, not a.  b | b :- not b, b, b.",
)


def _id_tuples(q):
    """q's rules are (head, pos, neg) tuples of tuples of distinct ints."""
    return type(q.rule_parts) is tuple and all(
        type(r) is tuple and len(r) == 3 and all(
            type(part) is tuple and len(set(part)) == len(part)
            and all(type(a) is int for a in part) for part in r)
        for r in q.rule_parts)


def test_parsed_rule_parts_agree_with_rule_built_twin():
    # a parsed program, its twin built from the same Rules, its twin built
    # from its own id tuples and its twin with every part reversed store the
    # same rules as id tuples, and every view, and every reduct, must come out
    # the same; == and hash compare the id tuples without building a Rule
    from aspback import (BackdoorQuery, TruthAssignment, delete_atoms, find_backdoor,
                         gl_reduct, horn_conflict_graph, ta_reduct)
    from test_detect import _golden_corpus
    # every rendered golden program parses; the mutants that do not are dropped
    texts = [render_program(p) for p in _golden_corpus()]
    texts = [t for t in texts + list(_mutants(3000)) + list(DUPLICATE_LITERALS)
             if not _outcome(t).startswith("error ")]
    queries = [BackdoorQuery(TargetClass.HORN), BackdoorQuery(TargetClass.HORN, "deletion"),
               BackdoorQuery(TargetClass.STRAT, "deletion")]
    dups = 0
    for text in texts:
        p = parse_program(text)
        parts = p.rule_parts
        twins = (Program(p.atom_names, parse_program(text).rules), Program(p.atom_names, parts),
                 Program(p.atom_names, [tuple(part[::-1] for part in r) for r in parts]))
        for twin in twins[1:]:
            assert p == twin and twin == p and hash(p) == hash(twin), text
        assert p._rules is None and twins[2]._rules is None, text
        m, x = range(0, p.n_atoms, 2), range(p.n_atoms // 3)
        tau = TruthAssignment({a: a % 2 for a in x})
        derived = [(q, core(q), gl_reduct(q, m), ta_reduct(q, tau), delete_atoms(q, x))
                   for q in (p,) + twins]
        for qs in derived:
            assert all(map(_id_tuples, qs)), text
            assert list(map(render_program, qs)) == list(map(render_program, derived[0])), text
        dups += p.duplicate_literals
        for twin in twins:
            assert CompiledProgram(p).rules == CompiledProgram(twin).rules, text
            assert p.occurring_atoms() == twin.occurring_atoms(), text
            assert horn_conflict_graph(p) == horn_conflict_graph(twin), text
            for q in queries:
                assert find_backdoor(p, q) == find_backdoor(twin, q), (text, q)
            assert p == twin and hash(p) == hash(twin), text
        assert twins[1].rule_parts == parts, text
        # nothing above built the Rule view; reading it leaves the id tuples in place
        assert p._rules is None, text
        assert len(p.rules) == len(parts) and p.rule_parts is parts, text
    assert len(texts) > 1000 and dups >= 11
    # same table and rule count, and one part differs as a set: unequal
    p = parse_program("a | b :- c, not d.")
    q = p.with_rules([((1, 0), (3,), (3,))])
    assert p != q and not q == p and hash(p) == hash(q)
    # with_rules takes id triples too: repeats are dropped, unknown ids refused
    p = parse_program("a :- b, not c.")
    assert p.with_rules([([0, 0], (1, 1, 1), {2})]).rule_parts == (((0,), (1,), (2,)),)
    with pytest.raises(ValueError, match="unknown atom id 3"):
        p.with_rules([((0,), (3,), ())])


def test_rendered_corpora_parse_back():
    # render_program writes ':-.' for a rule with no atoms; every corpus
    # program must read back as the same rules, classes and answer sets,
    # compared by atom name (the parse renumbers and drops unused atoms)
    from aspback import brute_answer_sets
    from test_detect import _golden_corpus, _strong_corpus

    def by_name(p, ids):
        return frozenset(map(p.atom_name, ids))
    empty = 0
    for i, p in enumerate(_golden_corpus() + _strong_corpus()):
        q = parse_program(render_program(p))
        assert [tuple(by_name(q, part) for part in r) for r in q.rule_parts] == \
            [tuple(by_name(p, part) for part in r) for r in p.rule_parts], i
        empty += ((), (), ()) in p.rule_parts
        for c in TargetClass:
            assert in_target_class(q, c) == in_target_class(p, c), (i, c)
        if p.n_atoms <= 12:
            assert {by_name(q, m) for m in brute_answer_sets(q)} == \
                {by_name(p, m) for m in brute_answer_sets(p)}, i
    assert empty >= 15


def test_atom_mask_ors_each_atom_once():
    assert atom_mask([3, 3]) == 8
    assert atom_mask(iter([0, 2, 0])) == 5 and atom_mask([]) == 0


def test_compiled_rules_are_masks_of_the_atom_sets():
    from test_detect import _golden_corpus
    programs = list(_golden_corpus()) + [
        parse_program(t) for t in _mutants(3000) if not _outcome(t).startswith("error ")]
    assert len(programs) > 1000
    for p in programs:
        want = tuple(tuple(sum(1 << a for a in set(part)) for part in r) for r in p.rule_parts)
        assert CompiledProgram(p).rules == want


def test_parse_deduplicates_each_part():
    p = parse_program(DUPLICATE_LITERALS[0])
    assert p.duplicate_literals == 3
    a, b, c, d = map(p.atom_id, "abcd")
    assert p.rule_parts == (((a, b), (c,), (d,)),)
    # the first read of rules builds a view of Rules; the tuples stay
    parts = p.rule_parts
    (r,) = p.rules
    assert (r.head, r.pos_body, r.neg_body) == tuple(map(frozenset, ((a, b), (c,), (d,))))
    assert p.rule_parts is parts and p.rules is p.rules
