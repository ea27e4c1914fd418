import pytest

from nlo.fewshots import fewshot_set_dir, parse_gold_outline
from nlo.outline import OutlineStatement


class TestParseGoldOutline:
    def test_reads_the_shipped_set(self):
        for path in sorted(fewshot_set_dir("default").glob("*.outline")):
            text = path.read_text(encoding="utf-8")
            outline = parse_gold_outline(text)
            assert len(outline) == len([ln for ln in text.splitlines() if ln.strip()])
            assert all(s.text.strip() and not s.verified for s in outline)

    def test_keeps_file_order_and_skips_blank_lines(self):
        outline = parse_gold_outline("3| Later section.\n\n2|Earlier section.\n")
        assert outline.statements == (
            OutlineStatement(3, "Later section."),
            OutlineStatement(2, "Earlier section."),
        )

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ("1| Fine.\nno number here\n", 2),
            ("1| Fine.\n\n4|   \n", 3),
            ("x| Not a number.\n", 1),
        ],
    )
    def test_malformed_line_raises(self, text, lineno):
        with pytest.raises(ValueError, match=f"outline line {lineno} is malformed"):
            parse_gold_outline(text)
