from fractions import Fraction

import pytest

from taurank.quiver import QuiverSyntaxError, parse_path_poly, parse_quiver_file
from taurank import fixtures


def test_alg_a_fixture_parses():
    quiver, relations = parse_quiver_file(fixtures.ALG_A_QA)
    assert quiver.n == 3
    assert len(quiver.arrows) == 6
    assert len(relations) == 6


def test_word_source_target_convention():
    quiver, _ = parse_quiver_file(fixtures.ALG_B_QA)
    # a*b means first b (3->2) then a (2->1)
    assert quiver.word_source(("a", "b")) == 3
    assert quiver.word_target(("a", "b")) == 1
    assert quiver.word_is_composable(("a", "b"))
    assert not quiver.word_is_composable(("b", "a"))


def test_non_parallel_relation_rejected():
    text = """\
vertices: 1 2 3
arrow a1: 2 -> 1
arrow b1: 3 -> 2
arrow c: 3 -> 1
arrow d: 3 -> 1
relations:
a1*b1 + c*d
"""
    with pytest.raises(QuiverSyntaxError):
        parse_quiver_file(text)


def test_non_composable_relation_rejected():
    text = """\
vertices: 1 2
arrow a: 1 -> 2
arrow b: 1 -> 2
relations:
a*b
"""
    with pytest.raises(QuiverSyntaxError, match="composable"):
        parse_quiver_file(text)


def test_unknown_arrow_rejected():
    text = "vertices: 1 2\narrow a: 1 -> 2\nrelations:\na*zz\n"
    with pytest.raises(QuiverSyntaxError, match="zz"):
        parse_quiver_file(text)


def test_short_relation_rejected():
    text = "vertices: 1 2\narrow a: 1 -> 2\nrelations:\na\n"
    with pytest.raises(QuiverSyntaxError, match="length"):
        parse_quiver_file(text)


def test_syntax_error_carries_line():
    text = "vertices: 1 2\narrow a: 1 => 2\n"
    with pytest.raises(QuiverSyntaxError, match="line 2"):
        parse_quiver_file(text)


def test_empty_relations_block_is_hereditary():
    quiver, relations = parse_quiver_file("vertices: 1 2\narrow a: 2 -> 1\nrelations:\n")
    assert relations == []
    assert quiver.n == 2


def test_coefficients_and_signs():
    terms = parse_path_poly("-1/2 a1*b2 + a2*b1 - 3 a3*b3")
    coeffs = {w: c for c, w in terms}
    assert coeffs[("a1", "b2")] == Fraction(-1, 2)
    assert coeffs[("a2", "b1")] == 1
    assert coeffs[("a3", "b3")] == -3


def test_compose_before_header_reverses_words():
    text = """\
compose: before
vertices: 1 2 3
arrow a: 2 -> 1
arrow b: 3 -> 2
relations:
b*a
"""
    _, relations = parse_quiver_file(text)
    assert relations[0].terms[0][1] == ("a", "b")


def test_comments_ignored():
    quiver, _ = parse_quiver_file("# header\nvertices: 1  # one vertex\n")
    assert quiver.n == 1


def test_a_repeated_word_sums_its_coefficients():
    text = ("vertices: 1 2 3\narrow a1: 2 -> 1\narrow a2: 2 -> 1\narrow b1: 3 -> 2\n"
            "arrow b2: 3 -> 2\nrelations:\na1*b1 + 2 a2*b2 - a1*b1 + 1/2 a1*b1\n")
    _, (relation,) = parse_quiver_file(text)
    assert relation.terms == ((Fraction(1, 2), ("a1", "b1")), (2, ("a2", "b2")))
    with pytest.raises(QuiverSyntaxError, match="empty relation"):
        parse_quiver_file(text.replace("+ 1/2 a1*b1", "- 2 a2*b2"))


def test_zero_denominator_rejected_with_its_line():
    with pytest.raises(QuiverSyntaxError, match=r"zero denominator in '1/0' \(line 1\)"):
        parse_path_poly("a*b + 1/0 c*d", 1)
