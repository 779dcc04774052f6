import json
import time
from fractions import Fraction

import pytest

import helpers
from rainbownet import FlowDocumentError, IntervalSet, ScenarioError, load_flow, load_scenario
from rainbownet.data import bundled_text
from rainbownet.rationals import MAX_DECIMAL_EXPONENT, format_rational, parse_rational


@pytest.mark.parametrize(
    "text, value",
    [
        ("1e4300", Fraction(10) ** 4300),
        ("1e-4300", Fraction(1, 10**4300)),
        (" 2.5E+4300 ", Fraction(25, 10) * 10**4300),
        ("3e0_1", Fraction(30)),
        ("3/4", Fraction(3, 4)),
    ],
)
def test_exponents_up_to_the_limit_are_accepted(text, value):
    assert MAX_DECIMAL_EXPONENT == 4300
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1e-30000", "1E+100000", "1e10000000"])
def test_larger_exponents_are_refused_before_any_power_is_built(text):
    # Fraction("1e10000000") alone takes seconds; the refusal takes none
    start = time.perf_counter()
    with pytest.raises(ValueError, match="rate: the exponent of .* exceeds 4300 in magnitude"):
        parse_rational(text, what="rate")
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("text", ["e5", "1e", "1e5/2", "1e" + "9" * 5000, "abc"])
def test_malformed_exponents_are_refused(text):
    with pytest.raises(ValueError, match="cannot parse"):
        parse_rational(text)


def test_every_document_number_goes_through_the_limit():
    # scenario capacities, flow rates and interval endpoints
    scenario = json.loads(bundled_text("fig1"))
    scenario["edges"][0]["capacity"] = "1e100000"
    with pytest.raises(ScenarioError, match="capacity: the exponent"):
        load_scenario(json.dumps(scenario))
    net = helpers.fig1_network()
    flow = json.loads(bundled_text("fig1_flow"))
    flow["rate"] = "1e-30000"
    with pytest.raises(FlowDocumentError, match="flow rate: the exponent"):
        load_flow(flow, net)
    with pytest.raises(ValueError, match="interval end: the exponent"):
        IntervalSet.from_pairs([["0", "1e4301"]])


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(10**4300 - 1), "9" * 4300),
        (Fraction(-(10**4299 - 1), 2), "-4" + "9" * 4298 + ".5"),
        (Fraction(1, 3 * 10**4299), "1/3" + "0" * 4299),
    ],
    ids=["integer", "decimal", "ratio"],
)
def test_numerals_up_to_the_digit_limit_print(value, text):
    assert format_rational(value) == text


@pytest.mark.parametrize(
    "value",
    [Fraction(10**4300), Fraction(-(10**4300), 3), Fraction(1, 3 * 10**4300),
     Fraction(1, 2**14300)],
    ids=["integer", "numerator", "denominator", "decimal"],
)
def test_longer_numerals_are_refused_with_a_message(value):
    # str() itself would raise the interpreter's "Exceeds the limit" error
    message = "^a result of more than 4300 digits is too large to print$"
    with pytest.raises(ValueError, match=message):
        format_rational(value)
