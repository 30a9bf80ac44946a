"""Expression parser and evaluator."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qjforms import DWP, E1, E2, E4, WP, ZERO, Bracket, Derivation, QJForm, ScaledJForm, bracket, derive, e6_form, forms
from qjforms.parser import (
    Call,
    EvalError,
    Lit,
    ParseError,
    Pow,
    Product,
    Sum,
    Var,
    evaluate,
    parse,
    parse_and_evaluate,
)
from qjforms.verify import random_form

F = Fraction


class TestParse:
    def test_pow_sub_tree(self):
        tree = parse("wp^2 - 5*e4")
        assert tree == Sum(((1, Pow(Var("wp"), 2)), (-1, Product((Lit(F(5)), Var("e4"))))))
        # A run of + and - or of * is one node, a run of one operand stays that
        # operand, and unary minus is a one-term Sum.
        assert parse("wp - e4 + e2") == Sum(((1, Var("wp")), (-1, Var("e4")), (1, Var("e2"))))
        assert parse("wp*e4*e2") == Product((Var("wp"), Var("e4"), Var("e2")))
        assert parse("(wp)") == Var("wp") and parse("-wp") == Sum(((-1, Var("wp")),))

    def test_nodes_are_immutable_values(self):
        a, b = Var("wp"), Lit(F(5))
        s = Sum(((1, a), (-1, b)))
        assert s == Sum(((1, Var("wp")), (-1, Lit(F(5))))) and hash(s) == hash(Sum(((1, a), (-1, b))))
        assert s != Sum(((1, a), (1, b))) and s != Sum(((-1, b), (1, a)))
        assert Product((a, b)) != Product((b, a)) and Product((a, b)) != Sum((a, b))
        with pytest.raises(AttributeError):
            s.terms = ((1, b),)
        with pytest.raises(AttributeError):
            Product((a, b)).factors = (b, a)
        tree = parse("rc(e4, wp^2, 1) - 5*e2")
        assert copy.deepcopy(tree) == tree and pickle.loads(pickle.dumps(tree)) == tree
        assert repr(Pow(a, 2)) == "Pow(base=Var(name='wp'), exponent=2)"
        assert repr(parse("-wp")) == "Sum(terms=((-1, Var(name='wp')),))"

    def test_whole_input_parsed_before_evaluation(self, monkeypatch):
        # A syntax error after an expensive call is reported without evaluating the call.
        monkeypatch.setattr("qjforms.parser.evaluate", lambda expr: pytest.fail("evaluated before parsing ended"))
        with pytest.raises(ParseError) as err:
            parse_and_evaluate("eis(1000) +* e4")
        assert err.value.position == 11

    def test_bracket_call(self):
        tree = parse("rc(e4, wp, 1)")
        assert tree == Call("rc", (Var("e4"), Var("wp"), 1))

    def test_rational_literals(self):
        assert parse("3/4") == Lit(F(3, 4))
        assert parse_and_evaluate("1/2 * wp") == F(1, 2) * WP

    def test_precedence(self):
        assert parse_and_evaluate("-wp^2") == -(WP**2)
        assert parse_and_evaluate("2*wp + 3*wp") == 5 * WP
        assert parse_and_evaluate("wp - wp - wp") == -WP  # left associative
        assert parse_and_evaluate("-1/140*dwp^2") == F(-1, 140) * DWP**2

    def test_case_insensitive(self):
        assert parse_and_evaluate("WP*E4") == WP * E4
        assert parse_and_evaluate("RC(E4, WP, 1)") == bracket(Bracket.RC_TAU, E4, WP, 1)

    def test_parens(self):
        assert parse_and_evaluate("(wp + e2) * (wp - e2)") == WP**2 - E2**2

    def test_non_integer_exponent(self):
        with pytest.raises(ParseError, match="non-integer exponent"):
            parse("wp^(1/2)")

    def test_negative_exponent(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse("wp^(-2)")

    def test_syntax_error_offsets(self):
        with pytest.raises(ParseError) as err:
            parse("wp + ")
        assert err.value.position == 5
        with pytest.raises(ParseError) as err:
            parse("wp @ e4")
        assert err.value.position == 3

    @pytest.mark.parametrize(
        "text, position",
        [("²", 0), ("٣*wp", 0), ("wp^²", 3), ("q(wp,٣,0)", 5)],
        ids=["superscript", "arabic_indic", "superscript_exponent", "arabic_indic_argument"],
    )
    def test_only_ascii_digits_are_digits(self, text, position):
        # str.isdigit accepts these, but int() rejects the superscript and
        # reads the Arabic-Indic digit as 3.
        with pytest.raises(ParseError, match="unexpected character") as err:
            parse(text)
        assert err.value.position == position

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier"):
            parse("foo + wp")
        with pytest.raises(ParseError, match="unknown function"):
            parse("foo(wp)")

    def test_malformed_rational(self):
        with pytest.raises(ParseError, match="malformed rational"):
            parse("1/")
        with pytest.raises(ParseError, match="zero denominator"):
            parse("1/0")

    @pytest.mark.parametrize(
        "text, position",
        [("rc(wp, e4, -1)", 11), ("q(e2, 1, 1/2)", 9), ("wp + tv(e4, wp, e2)", 16), ("wp + rc(e4, wp)", 5)],
        ids=["negative", "rational", "form", "arity"],
    )
    def test_call_error_offsets(self, text, position):
        # A bad trailing argument is reported at its own offset, a wrong arity at the function's.
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position

    def test_call_arity(self):
        with pytest.raises(ParseError, match="takes 3 argument"):
            parse("rc(e4, wp)")
        with pytest.raises(ParseError, match="argument 3 of rc must be a nonnegative integer literal"):
            parse("rc(e4, wp, e2)")
        with pytest.raises(ParseError, match="non-integer argument 3 of q: 1/2"):
            parse("q(e2, 1, 1/2)")
        # An argument past the integers is an arity error, whatever it is.
        for text in ("rc(e4, wp, 1, e2)", "rc(e4, wp, 1, 2)", "dz(wp, 1)"):
            with pytest.raises(ParseError, match="takes") as err:
                parse(text)
            assert err.value.position == 0

    @pytest.mark.parametrize(
        "text, value, message, position",
        [
            ("wp^2", 2, None, None),
            ("wp^(2)", 2, None, None),
            ("rc(wp, e4, 2)", 2, None, None),
            ("rc(wp, e4, (2))", 2, None, None),
            ("wp^-0", 0, None, None),
            ("rc(wp, e4, -0)", 0, None, None),
            ("wp^-1", None, "negative exponent: -1", 3),
            ("wp^(-1)", None, "negative exponent: -1", 3),
            ("rc(e4, wp, -1)", None, "negative argument 3 of rc: -1", 11),
            ("rc(e4, wp, (-1))", None, "negative argument 3 of rc: -1", 11),
            ("wp^(1/2)", None, "non-integer exponent: 1/2", 3),
            ("q(e2, 1, 1/2)", None, "non-integer argument 3 of q: 1/2", 9),
            ("wp^e2", None, "exponent must be a nonnegative integer literal", 3),
            ("wp^((2))", None, "exponent must be a nonnegative integer literal", 4),
            ("rc(wp, e4, ((2)))", None, "argument 3 of rc must be a nonnegative integer literal", 12),
            ("tv(e4, wp, e2)", None, "argument 3 of tv must be a nonnegative integer literal", 11),
            ("eis(e4)", None, "argument 1 of eis must be a nonnegative integer literal", 4),
            ("eis()", None, "argument 1 of eis must be a nonnegative integer literal", 4),
        ],
    )
    def test_exponents_and_call_indices_read_alike(self, text, value, message, position):
        # One rule reads an exponent and a call's integer argument; its errors
        # name the exponent or the argument by position.
        if message is None:
            tree = parse(text)
            assert (tree.exponent if isinstance(tree, Pow) else tree.args[-1]) == value
            return
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == f"{message} (at offset {position})" and err.value.position == position

    def test_unary_minus_run_is_one_sign(self):
        # A run of unary minus folds to one sign, so its length adds no nesting.
        assert parse("--wp") == Var("wp") and parse("---wp") == parse("-wp") == Sum(((-1, Var("wp")),))
        assert parse_and_evaluate("-" * 5000 + "wp") == WP
        assert parse_and_evaluate("-" * 5001 + "wp") == -WP
        assert parse_and_evaluate("wp - --e4") == WP - E4
        # Parentheses are real nesting and stay in the tree.
        assert parse("-(-wp)") == Sum(((-1, Sum(((-1, Var("wp")),))),))


class TestEvaluate:
    def test_derivation_calls(self):
        assert parse_and_evaluate("dz(e1)") == -WP - E2
        assert parse_and_evaluate("ob(wp)") == -2 * WP**2 + 20 * E4
        assert parse_and_evaluate("dtau(e2)") == F(1, 4) * (E2**2 - 5 * E4)
        assert parse_and_evaluate("d(e1)") == derive(Derivation.DJAC, E1)
        assert parse_and_evaluate("delta(e4)") == 2 * E4
        # every derivation is callable by its enum value, on a mixed-weight form
        f = E1 * WP - F(3, 7) * E4 + E2**2
        for tag in Derivation:
            assert parse_and_evaluate(f"{tag.value}(e1*wp - 3/7*e4 + e2^2)") == derive(tag, f), tag

    def test_q_call(self):
        assert parse_and_evaluate("q(e2, 1, 0)") == ScaledJForm(QJForm.constant(-1), 1)

    def test_e6_sugar(self):
        assert parse_and_evaluate("e6") == e6_form()
        assert parse_and_evaluate("eis(8)") == F(3, 7) * E4**2

    def test_brackets(self):
        assert parse_and_evaluate("tv(e2, e1, 1)") == bracket(Bracket.TV, E2, E1, 1)
        assert parse_and_evaluate("rcd(e4, wp, 1)") == bracket(Bracket.RC_D, E4, WP, 1)
        # every bracket is callable by its enum value, on mixed-weight forms
        f, g = E1 + E4, DWP - E2 * E1
        for tag in Bracket:
            for n in range(3):
                assert parse_and_evaluate(f"{tag.value}(e1 + e4, dwp - e2*e1, {n})") == bracket(tag, f, g, n), (tag, n)

    def test_scaled_form_cannot_nest(self):
        with pytest.raises(EvalError):
            parse_and_evaluate("q(e2, 1, 0) + wp")
        with pytest.raises(EvalError):
            parse_and_evaluate("dz(q(e2, 1, 0))")

    def test_eis_domain_error(self):
        with pytest.raises(EvalError):
            parse_and_evaluate("eis(7)")


class TestRoundTrip:
    def test_canonical_round_trip(self):
        rng = random.Random(71)
        cases = [e6_form(), WP**2 - 5 * E4, -E1, 3 * E2 * E1 - F(7, 2) * WP]
        for _ in range(30):
            f = random_form(rng, rng.randint(1, 12))
            if f is not None:
                cases.append(f)
        pairs = [(str(f), f) for f in cases]
        # Flat runs of any length are one node each, so they evaluate under
        # the default recursion limit.
        big = (WP + DWP + E4 + E1 + E2 + 1) ** 9
        assert len(big) == 2002
        pairs += [(str(big), big), (" + ".join(["wp"] * 5000), 5000 * WP), ("*".join(["e1"] * 3000), E1**3000)]
        for text, f in pairs:
            assert parse_and_evaluate(text) == f


# Small random forms, of mixed weights across a list.
_FORMS = st.builds(
    lambda seed, weight: random_form(random.Random(seed), weight, max_terms=4), st.integers(0, 2**32), st.integers(1, 6)
)


class TestNarySum:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((1, -1)), _FORMS), min_size=1, max_size=10), st.data())
    def test_matches_binary_fold(self, terms, data):
        # The independent route: a left fold through QJForm.__add__ and __sub__.
        fold = ZERO
        for sign, f in terms:
            fold = fold + f if sign == 1 else fold - f
        trees = [(sign, parse(str(f))) for sign, f in terms]
        assert evaluate(Sum(tuple(trees))) == fold
        # The same run as text: a leading minus is a unary minus.
        text = ("-" if terms[0][0] == -1 else "") + " ".join(
            [f"({terms[0][1]})"] + [f"{'+' if sign == 1 else '-'} ({f})" for sign, f in terms[1:]]
        )
        assert parse_and_evaluate(text) == fold
        assert evaluate(Sum(tuple(trees + [(-sign, tree) for sign, tree in trees]))) == ZERO
        # q(...) is a top-level result only, wherever it sits in a run.
        at = data.draw(st.integers(0, len(trees)))
        scaled = parse("q(e2, 1, 0)")
        with pytest.raises(EvalError):
            evaluate(Sum(tuple(trees[:at] + [(data.draw(st.sampled_from((1, -1))), scaled)] + trees[at:])))
        factors = [tree for _, tree in trees]
        with pytest.raises(EvalError):
            evaluate(Product(tuple(factors[:at] + [scaled] + factors[at:])))

    def test_one_canonicalisation_per_sum(self, monkeypatch):
        # An n-term sum builds one numerator dict and makes one form of it,
        # where a binary fold would make n - 1.
        text = " - ".join(["wp + e4", "e1 + dwp", "e2"] * 100)
        expected = -98 * WP + 100 * (E4 + DWP - E1 - E2)
        made = []
        make = forms._make
        monkeypatch.setattr(forms, "_make", lambda num, den: made.append(den) or make(num, den))
        value = parse_and_evaluate(text)
        assert len(made) == 1 and value == expected
