"""The line model: string literals, continuations, signature and docstring.

The model is checked against a reference built from the standard library's
``tokenize`` on every unit that ``tokenize`` accepts; ``tokenize`` is the
test's reference only.  The regression cases below pin placement defects
of the former string-unaware line passes.
"""

import io
import tokenize

from hypothesis import given, settings, strategies as st

from nlo.fewshots import load_fewshot_set
from nlo.generation import comment_slot_positions, parse_infilling
from nlo.outline import Outline, OutlineStatement, extract, remap_anchors, validate
from nlo.source_model import C_LIKE_PROFILE, SourceUnit, docstring_span

from conftest import SQ_CODE, TOUR_ANNOTATED, TOUR_CODE
from test_generation import TALLY_CODE

OPENERS, CLOSERS = ("(", "[", "{"), (")", "]", "}")


def tokenize_reference(unit):
    """Per line: does it begin inside a string literal, and does it continue
    the statement above (open brackets or a backslash)?  ``None`` when
    ``tokenize`` rejects the unit."""
    try:
        tokens = list(
            tokenize.generate_tokens(io.StringIO(unit.text() + "\n").readline)
        )
    except (tokenize.TokenError, SyntaxError):
        return None
    if any(token.type == tokenize.ERRORTOKEN for token in tokens):
        return None
    in_string = [False] * len(unit)
    delta = [0] * (len(unit) + 2)
    line_ends = set()
    for token in tokens:
        first, last = token.start[0], token.end[0]
        if token.type == tokenize.STRING:
            for row in range(first + 1, last + 1):
                in_string[row - 1] = True
        elif token.type == tokenize.OP and token.string in OPENERS:
            delta[first] += 1
        elif token.type == tokenize.OP and token.string in CLOSERS:
            delta[first] -= 1
        elif token.type in (tokenize.NEWLINE, tokenize.NL):
            line_ends.add(first)
    continued, depth = [], 0
    for i in range(1, len(unit) + 1):
        backslash = i > 1 and i - 1 not in line_ends and not in_string[i - 1]
        continued.append(depth > 0 or backslash)
        depth += delta[i]
    return in_string, continued


def model_masks(unit):
    model = unit._line_model
    continued = [d > 0 or b for d, b in zip(model.depth, model.backslash)]
    return list(model.in_string), continued


def assert_matches_tokenize(unit):
    reference = tokenize_reference(unit)
    if reference is not None:
        assert model_masks(unit) == reference, unit.lines
    return reference is not None


# Statement-shaped blocks: strings holding brackets, quotes and comment
# tokens, comments holding brackets, bracket and backslash continuations,
# multi-line and backslash-continued string literals.
BLOCKS = (
    ("x = 1",),
    ('i = s.index("(")',),
    ("t = ')' + '\\'[' + \"#\"",),
    ('note = 1  # a comment with ( and "',),
    ("w = f(a,", "      b)"),
    ("items = [", "    1, 2,  # ]", "]"),
    ("data = load() \\", "    .strip()"),
    ('msg = """', "text (with [brackets]", "#* not a comment", '"""'),
    ("doc = '''one''' + '''two", "  # not a comment either (", "'''"),
    ('s = "a\\', 'b("'),
    ("r = r\"\\d+(\" + rb'\\''",),
    ('"""Doc."""',),
    ("if x:  # (", "    pass"),
    ('e = """\\"""" + x',),
    ("y = {'k': (1,", "     2)}  # }"),
    ("z = x \\", "  + y \\", "  + w"),
    ("u = '''a\\", "b'''"),
    ("",),
    ("   ",),
)
HEADERS = (
    [],
    ["def f(a, b=')'):  # helper ("],
    ["def f(a, b=')'):", '    """Doc (."""'],
    ["async def f(", "    a,", "):", '    r"""Doc.', "", '    More ["""'],
)


@st.composite
def python_units(draw):
    blocks = draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=8))
    body = [line for block in blocks for line in block]
    header = draw(st.sampled_from(HEADERS))
    if header:
        body = ["    " + line if line.strip() else line for line in body]
    return SourceUnit(lines=tuple(header + body))


@st.composite
def shuffled_units(draw):
    """Lines from the blocks in any order: many are not valid Python."""
    pool = sorted({line for block in BLOCKS for line in block})
    lines = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    return SourceUnit(lines=tuple(lines))


class TestAgainstTokenize:
    def test_shipped_units(self):
        units = [SourceUnit.from_text(t) for t in (TOUR_CODE, TOUR_ANNOTATED)]
        units += [SourceUnit.from_text(t) for t in (SQ_CODE, TALLY_CODE)]
        units += [example.unit for example in load_fewshot_set("default")]
        for unit in units:
            assert assert_matches_tokenize(unit), unit.lines

    @settings(max_examples=400, deadline=None)
    @given(python_units())
    def test_statement_shaped_units(self, unit):
        assert assert_matches_tokenize(unit), unit.lines

    @settings(max_examples=400, deadline=None)
    @given(shuffled_units())
    def test_shuffled_lines(self, unit):
        assert_matches_tokenize(unit)


def outline_at(*anchors):
    return Outline(statements=tuple(OutlineStatement(a, "x") for a in anchors))


class TestRegressions:
    def test_bracket_in_string_or_comment_keeps_later_slots(self):
        for second in ('  i = s.index("(")', "  i = 1  # note ("):
            unit = SourceUnit(lines=("def f(s):", second, "  j = i + 1", "  return j"))
            assert comment_slot_positions(unit) == {1: False, 2: True, 3: False, 4: False}

    def test_anchor_inside_string_literal_is_a_violation(self):
        unit = SourceUnit.from_text(
            'def f():\n  """Doc.\n  more\n  """\n  msg = """\n  hello\n  """\n  return msg'
        )
        assert parse_infilling("6| x", unit).issues == ()  # the parser keeps it
        assert [v.kind for v in validate(outline_at(6), unit)] == ["in_string"]
        assert [v.kind for v in validate(outline_at(3), unit)] == ["docstring"]
        assert validate(outline_at(5, 8), unit) == []
        assert 6 not in comment_slot_positions(unit)

    def test_extract_keeps_star_shaped_line_inside_string(self):
        lines = ("def f():", "  #* Build the text.", '  msg = """', "  #* not a comment")
        unit = SourceUnit(lines=lines + ('  """', "  return msg"))
        bare, outline = extract(unit)
        assert bare.lines == unit.lines[:1] + unit.lines[2:]
        assert outline == Outline.of(OutlineStatement(2, "Build the text."))

    def test_trailing_comment_on_signature(self):
        unit = SourceUnit.from_text(
            'def f(x):  # helper\n  """Doc."""\n  y = x\n  if y:\n    return 1'
        )
        assert docstring_span(unit) == (2, 2)
        assert comment_slot_positions(unit) == {1: False, 3: True, 4: False, 5: False}


class TestModel:
    def test_one_line_strings_only_without_the_triple_quote_rule(self):
        unit = SourceUnit(lines=('s = """', "(", '"""'), profile=C_LIKE_PROFILE)
        model = unit._line_model
        assert model.in_string == (False, False, False)
        assert model.depth == (0, 0, 1)

    def test_comment_token_comes_from_the_profile(self):
        unit = SourceUnit(lines=("f(a, // )", "b);", "# (", "x;"), profile=C_LIKE_PROFILE)
        assert unit._line_model.depth == (0, 1, 0, 1)

    def test_backslash_newline_continues_a_one_line_string(self):
        unit = SourceUnit(lines=('x = "a\\', '#* b"', "y = 1"), profile=C_LIKE_PROFILE)
        assert unit._line_model.in_string == (False, True, False)

    def test_model_is_computed_once(self):
        unit = SourceUnit.from_text("def f():\n  return 1")
        assert unit._line_model is unit._line_model


class TestRemapAnchors:
    @settings(max_examples=300, deadline=None)
    @given(shuffled_units(), shuffled_units(), st.integers(0, 10))
    def test_every_kept_anchor_is_valid_on_the_new_unit(self, old, inserted, at):
        new = SourceUnit(lines=old.lines[:at] + inserted.lines + old.lines[at:])
        steps = (OutlineStatement(n, "Step.") for n in range(1, len(old) + 1))
        outline = Outline(tuple(s for s in steps if not validate(Outline.of(s), old)))
        kept, stale = remap_anchors(outline, old, new)
        assert validate(kept, new) == []
        assert len(kept) + len(stale) == len(outline)

    def test_anchor_wrapped_in_a_string_is_stale(self):
        old = SourceUnit.from_text("def f():\n  x = 1\n  return x")
        new = SourceUnit.from_text('def f():\n  s = """\n  x = 1\n  """\n  return x')
        outline = Outline.of(OutlineStatement(2, "Set x."), OutlineStatement(3, "Give x."))
        kept, stale = remap_anchors(outline, old, new)
        assert kept == Outline.of(OutlineStatement(5, "Give x."))
        assert stale == [OutlineStatement(2, "Set x.")]
