import pickle

import pytest

from prosodika.textgrid import TextGridParseError, parse_textgrid, read_textgrid

from conftest import long_textgrid, short_textgrid

MINIMAL = [(0.0, 1.0, "bonjour"), (1.0, 1.5, "")]
THREE = [(0.0, 0.5, "a"), (0.5, 1.0, "b"), (1.0, 1.5, "")]


def with_point_tier(text: str) -> str:
    """A one-tier long grid with a second tier, of points, appended."""
    return text.replace("size = 1", "size = 2").rstrip("\n") + "\n" + "\n".join(
        [
            "    item [2]:",
            '        class = "TextTier"',
            '        name = "events"',
            "        xmin = 0",
            "        xmax = 1.5",
            "        points: size = 1",
            "        points [1]:",
            "            number = 0.7",
            '            mark = "click"',
        ]
    ) + "\n"


class TestLongFormat:
    def test_minimal(self):
        tiers = parse_textgrid(long_textgrid(MINIMAL))
        assert len(tiers) == 1
        tier = tiers[0]
        assert tier.name == "words"
        assert len(tier.intervals) == 2
        assert tier.intervals[0].label == "bonjour"
        assert tier.intervals[1].label == ""
        assert tier.intervals[0].end_s == 1.0

    def test_labels_verbatim(self):
        tiers = parse_textgrid(long_textgrid([(0.0, 1.0, "  il a dit \"oui\" ")]))
        assert tiers[0].intervals[0].label == '  il a dit "oui" '

    def test_multiple_tiers(self):
        a = long_textgrid(MINIMAL)
        # append a second tier by building a two-tier file manually
        text = a.replace("size = 1", "size = 2").rstrip("\n") + "\n" + "\n".join(
            [
                "    item [2]:",
                '        class = "IntervalTier"',
                '        name = "phones"',
                "        xmin = 0",
                "        xmax = 1.5",
                "        intervals: size = 1",
                "        intervals [1]:",
                "            xmin = 0",
                "            xmax = 1.5",
                '            text = "b"',
            ]
        ) + "\n"
        tiers = parse_textgrid(text)
        assert [t.name for t in tiers] == ["words", "phones"]

    def test_point_tier_skipped(self):
        tiers = parse_textgrid(with_point_tier(long_textgrid(MINIMAL)))
        assert [t.name for t in tiers] == ["words"]

    def test_list_headers_are_optional(self):
        text = with_point_tier(long_textgrid(MINIMAL))
        lines = text.splitlines()
        headers = [line for line in lines if line.strip().endswith(":")]
        assert headers == ["item []:", "    item [1]:", "        intervals [1]:",
                           "        intervals [2]:", "    item [2]:", "        points [1]:"]
        bare = "\n".join(line for line in lines if line not in headers) + "\n"
        assert parse_textgrid(bare) == parse_textgrid(text)

    def test_value_in_a_header_slot_names_its_line(self):
        lines = long_textgrid(THREE).splitlines()
        assert lines[22] == "        intervals [3]:"
        lines[22] = '        "x"'
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid("\n".join(lines) + "\n")
        assert err.value.line == 23
        assert "expected a number for interval start" in str(err.value)

    def test_label_that_ends_like_a_header_is_kept(self):
        tiers = parse_textgrid(long_textgrid([(0.0, 1.0, "x [1]:"), (1.0, 2.0, "\nitem [2]:")]))
        assert [i.label for i in tiers[0].intervals] == ["x [1]:", "\nitem [2]:"]


class TestShortFormat:
    def test_equivalent_to_long(self):
        long_tiers = parse_textgrid(long_textgrid(MINIMAL))
        short_tiers = parse_textgrid(short_textgrid(MINIMAL))
        assert long_tiers == short_tiers

    def test_values_may_carry_keys(self):
        lines = short_textgrid(MINIMAL).splitlines()
        lines[3], lines[14] = "xmin = 0.0", 'text = "bonjour"'
        assert parse_textgrid("\n".join(lines)) == parse_textgrid(short_textgrid(MINIMAL))

    def test_escaped_quotes(self):
        tiers = parse_textgrid(short_textgrid([(0.0, 1.0, 'dit ""oui""'.replace('""', '"'))]))
        assert tiers[0].intervals[0].label == 'dit "oui"'


class TestErrors:
    def test_xmax_before_xmin_names_line(self):
        bad = long_textgrid([(0.0, 1.0, "a"), (1.0, 0.5, "b")])
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(bad)
        # offending interval starts at a concrete line carried by the error
        assert err.value.line > 0
        assert "precedes" in str(err.value)

    @pytest.mark.parametrize("make,line", [(long_textgrid, 20), (short_textgrid, 16)])
    @pytest.mark.parametrize("second,message", [((1.0, 0.5, "b"), "precedes"),
                                                ((0.5, 2.0, "b"), "overlaps")])
    def test_interval_order_errors_name_the_interval_start(self, make, line, second, message):
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(make([(0.0, 1.0, "a"), second]))
        assert err.value.line == line
        assert message in str(err.value)

    def test_content_after_the_last_tier_names_its_line(self):
        # without its tier xmax line, the tier reads the interval count as its
        # end and the first interval's start, 0.0, as its interval count
        lines = short_textgrid(THREE).splitlines()
        assert lines[10] == "1.5"
        del lines[10]
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid("\n".join(lines) + "\n\n")
        assert err.value.line == 13
        assert "'0.5' after the last tier" in str(err.value)

    def test_only_blank_lines_may_follow_the_last_tier(self):
        assert parse_textgrid(short_textgrid(MINIMAL) + "\n  \r\n\n") == parse_textgrid(
            short_textgrid(MINIMAL))
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(long_textgrid(MINIMAL) + "\n    item [2]:\n")
        assert err.value.line == 24

    @pytest.mark.parametrize("flag,message", [
        ("tiers? <absent>", "tierless TextGrid has no interval tiers"),
        ("<absent>", "tierless TextGrid has no interval tiers"),
        ("tiers? maybe", "expected tiers? <exists> flag"),
        ("maybe", "expected tiers? <exists> flag"),
    ])
    def test_tier_flag(self, flag, message):
        for text in (long_textgrid(MINIMAL).replace("tiers? <exists>", flag),
                     short_textgrid(MINIMAL).replace("<exists>", flag)):
            with pytest.raises(TextGridParseError) as err:
                parse_textgrid(text)
            assert (err.value.line, err.value.args[0]) == (6, message)

    def test_error_survives_pickling(self):
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(long_textgrid([(0.0, 1.0, "a"), (1.0, 0.5, "b")]))
        copy = pickle.loads(pickle.dumps(err.value))
        assert (copy.line, str(copy)) == (err.value.line, str(err.value))

    def test_malformed_header(self):
        with pytest.raises(TextGridParseError):
            parse_textgrid("this is not\na textgrid\n0\n1\n")

    def test_wrong_object_class(self):
        text = long_textgrid(MINIMAL).replace('"TextGrid"', '"Pitch"')
        with pytest.raises(TextGridParseError):
            parse_textgrid(text)

    def test_truncated_file(self):
        text = long_textgrid(MINIMAL)
        truncated = "\n".join(text.splitlines()[:-2])
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(truncated)
        assert "end of file" in str(err.value) or "unterminated" in str(err.value)

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_number(self, value):
        text = long_textgrid(MINIMAL).replace("size = 1", f"size = {value}")
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(text)
        assert err.value.line == 7

    @pytest.mark.parametrize("make,old,new,line", [
        (long_textgrid, 'class = "IntervalTier"', 'class = "Foo"', 10),
        (short_textgrid, '"IntervalTier"', '"Foo"', 8),
    ])
    def test_unknown_tier_class_names_its_line(self, make, old, new, line):
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(make(MINIMAL).replace(old, new))
        assert (err.value.line, err.value.args[0]) == (line, "unknown tier class 'Foo'")

    @pytest.mark.parametrize("old,new,line,context", [
        ("size = 1", "size = 1.5", 7, "tier count"),
        ("intervals: size = 2", "intervals: size = 1.5", 14, "interval count"),
        ("intervals: size = 2", "intervals: size = 2.0", None, None),
    ])
    def test_counts_must_be_whole_numbers(self, old, new, line, context):
        text = long_textgrid(MINIMAL).replace(old, new)
        if line is None:
            assert parse_textgrid(text) == parse_textgrid(long_textgrid(MINIMAL))
            return
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(text)
        assert (err.value.line, err.value.args[0]) == (
            line, f"expected a whole number for {context}, got 1.5")

    def test_point_count_must_be_a_whole_number(self):
        text = with_point_tier(long_textgrid(MINIMAL)).replace("points: size = 1",
                                                               "points: size = 0.5")
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(text)
        assert (err.value.line, err.value.args[0]) == (
            28, "expected a whole number for point count, got 0.5")

    def test_overlapping_intervals(self):
        bad = long_textgrid([(0.0, 1.0, "a"), (0.5, 2.0, "b")])
        with pytest.raises(TextGridParseError) as err:
            parse_textgrid(bad)
        assert "overlap" in str(err.value)


class TestEncodings:
    def test_utf8_file(self, tmp_path):
        p = tmp_path / "g.TextGrid"
        p.write_text(long_textgrid([(0.0, 1.0, "déjà")]), encoding="utf-8")
        tiers = read_textgrid(p)
        assert tiers[0].intervals[0].label == "déjà"

    def test_utf16_file(self, tmp_path):
        p = tmp_path / "g16.TextGrid"
        p.write_bytes(long_textgrid([(0.0, 1.0, "déjà")]).encode("utf-16"))
        tiers = read_textgrid(p)
        assert tiers[0].intervals[0].label == "déjà"

    def test_utf8_bom(self, tmp_path):
        p = tmp_path / "gbom.TextGrid"
        p.write_bytes(b"\xef\xbb\xbf" + long_textgrid([(0.0, 1.0, "ete")]).encode("utf-8"))
        tiers = read_textgrid(p)
        assert tiers[0].intervals[0].label == "ete"

    @pytest.mark.parametrize("blob,line,message", [
        (b"\xef\xbb\xbfFile type\ncaf\xe9\n", 2, "invalid UTF-8 at byte 16: invalid continuation byte"),
        ("File\r\ntype".encode("utf-16") + b"\x00", 2, "invalid UTF-16 at byte 22: truncated data"),
        (b"\xfe\xff\x00a\xdc\x00", 1, "invalid UTF-16 at byte 4: illegal encoding"),
    ])
    def test_decode_error_names_the_file_and_line(self, tmp_path, blob, line, message):
        p = tmp_path / "bad.TextGrid"
        p.write_bytes(blob)
        with pytest.raises(TextGridParseError) as err:
            read_textgrid(p)
        assert str(err.value) == f"line {line}: {p}: {message}"

    def test_latin1_without_a_bom(self, tmp_path):
        p = tmp_path / "g.TextGrid"
        p.write_bytes(long_textgrid([(0.0, 1.0, "déjà")]).encode("latin-1"))
        assert read_textgrid(p)[0].intervals[0].label == "déjà"

    @pytest.mark.parametrize("label", ["a\u2028b", "a\x85b", "a\x0cb", "a\x1eb", "\u2028"])
    def test_only_newlines_break_lines(self, tmp_path, label):
        p = tmp_path / "g.TextGrid"
        p.write_text(long_textgrid([(0.0, 1.0, label)]), encoding="utf-8")
        assert read_textgrid(p)[0].intervals[0].label == label

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_label_spanning_lines_keeps_the_file_line_break(self, tmp_path, newline):
        p = tmp_path / "g.TextGrid"
        text = long_textgrid([(0.0, 1.0, "a\nb"), (1.0, 2.0, "c")]).replace("\n", newline)
        p.write_bytes(text.encode("utf-8"))
        labels = [i.label for i in read_textgrid(p)[0].intervals]
        assert labels == [f"a{newline}b", "c"]
