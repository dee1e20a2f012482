"""Tests for the text format and the Quirk URL codec."""
from __future__ import annotations

import json
import re
import urllib.parse

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnzsynth import (
    Circuit,
    CircuitBuilder,
    CnZSpec,
    CodecError,
    Gate,
    Method,
    Op,
    cccz_6t,
    check_implements,
    emit_text,
    export_quirk_url,
    oracle_cnz,
    parse_quirk_url,
    parse_text,
    synth_cnz,
)
from cnzsynth import codec
from cnzsynth.codec import QUIRK_URL_PREFIX
from quirk_fixtures import REFERENCE_QUIRK_CCCZ_URL

CCCZ_TEXT = """\
qubits 5
bits 1
data 0 1 2 3
h 4
t 4
cx 1 4
tdg 4
cx 0 4
t 4
cx 1 4
cx 2 4
tdg 4
cx 3 4
t 4
cx 2 4
tdg 4
cx 3 4
sxdg 4
m 4 -> b0
reset 4
cz 2 3 if b0==0
cz 0 1 if b0==1
"""


def quirk_cols(url: str) -> list:
    payload = urllib.parse.unquote(url.split("#circuit=", 1)[1])
    return json.loads(payload)["cols"]


def all_synthesized() -> list[Circuit]:
    circuits = [cccz_6t()]
    for n in range(2, 6):
        circuits.append(synth_cnz(CnZSpec(n), Method.BASELINE))
        if n >= 3:
            circuits.append(synth_cnz(CnZSpec(n), Method.OPTIMIZED))
    return circuits


# --- text format -----------------------------------------------------------

def test_emit_text_is_canonical():
    assert emit_text(cccz_6t()) == CCCZ_TEXT


def test_text_round_trip_is_op_identical():
    for circuit in all_synthesized():
        assert parse_text(emit_text(circuit)) == circuit


def test_parse_text_tolerates_comments_and_blanks():
    doc = "\n# a comment\nqubits 1\nbits 0\ndata 0\n\nt 0  # trailing note\n"
    circuit = parse_text(doc)
    assert circuit.ops == (Op(Gate.T, (0,)),)


def test_parse_text_empty_headers_give_empty_circuit():
    circuit = parse_text("qubits 0\nbits 0\ndata\n")
    assert circuit == Circuit(0, 0, (), frozenset())


def test_parse_text_defaults_missing_headers():
    assert parse_text("") == Circuit(0, 0, (), frozenset())
    # absent data header designates every qubit as data
    assert parse_text("qubits 2\nt 0\n").data_qubits == frozenset({0, 1})


def test_parse_text_reports_line_numbers():
    with pytest.raises(CodecError, match="line 4.*identical operands"):
        parse_text("qubits 2\nbits 0\ndata 0 1\ncx 0 0\n")
    with pytest.raises(CodecError, match="line 2"):
        parse_text("qubits 1\nfrobnicate 0\n")


def test_parse_text_names_op_lines_and_circuit_violations_exactly():
    # a blank line and a comment sit between the headers and op 0, on line 5
    with pytest.raises(CodecError) as raised:
        parse_text("qubits 2\nbits 1\n\n# ops\ncx 1 1\nm 0 -> b0\n")
    assert str(raised.value) == (
        "invalid circuit: line 5: identical operands; circuit: data qubit 0 is measured and never reset")


def test_qubit_header_is_bounded_before_any_set_is_built():
    assert parse_text("qubits 65536\n").data_qubits == frozenset(range(65536))
    with pytest.raises(CodecError) as raised:
        parse_text("# wide\nqubits 65537\n")
    assert str(raised.value) == "line 2: qubit count 65537 exceeds 65536"


def test_quirk_register_above_the_bound_is_invalid():
    url = QUIRK_URL_PREFIX + urllib.parse.quote(json.dumps({"cols": [[1] * 65536 + ["H"]]}))
    with pytest.raises(CodecError) as raised:
        parse_quirk_url(url)
    assert str(raised.value) == "invalid circuit: circuit: qubit count 65537 exceeds 65536"


def test_text_round_trip_holds_at_the_register_bound():
    circuit = Circuit(1 << 16, 1, (Op(Gate.H, (65535,)), Op(Gate.MEASURE, (65535,), 0)), frozenset({0}))
    assert parse_text(emit_text(circuit)) == circuit


def test_parse_text_rejects_out_of_range_index():
    with pytest.raises(CodecError, match="out of range"):
        parse_text("qubits 1\nbits 0\ndata 0\nh 4\n")


def test_parse_text_rejects_condition_on_unwritten_bit():
    with pytest.raises(CodecError, match="precedes its write"):
        parse_text("qubits 2\nbits 1\ndata 0 1\ncz 0 1 if b0==1\n")


def test_parse_text_rejects_malformed_measure():
    with pytest.raises(CodecError, match="usage: m"):
        parse_text("qubits 1\nbits 1\ndata\nm 0 b0\n")


@pytest.mark.parametrize("doc", [
    "qubits ²\n",
    "qubits ٣\n",
    "qubits 2\nh ١\n",
    "qubits 1\nbits 1\nm 0 -> b١\n",
    "qubits 2\nbits 1\nm 1 -> b0\nreset 1\nh 0 if b٠==1\n",
], ids=["superscript-count", "arabic-indic-count", "arabic-indic-qubit", "measure-bit",
        "condition-bit"])
def test_parse_text_accepts_ascii_digits_only(doc):
    with pytest.raises(CodecError):
        parse_text(doc)


#: A number with more digits than int() converts at its default limit (4,300 digits).
BIG = "1" + "0" * 5000


@pytest.mark.parametrize("parse, doc, message", [
    (parse_text, f"qubits {BIG}\n", "line 1: qubit count"),
    (parse_text, f"qubits 2\ndata {BIG}\n", "line 2: data qubit"),
    (parse_text, f"qubits 2\nh {BIG}\n", "line 2: qubit"),
    (parse_text, f"qubits 2\nbits 1\nm 0 -> b{BIG}\n", "line 3: bit"),
    (parse_text, f"qubits 2\nbits 1\nm 0 -> b0\nx 1 if b{BIG}==1\n", "line 4: condition bit"),
    (parse_quirk_url, QUIRK_URL_PREFIX + urllib.parse.quote(f'{{"cols":[[{BIG}]]}}', safe=""),
     "malformed circuit JSON"),
], ids=["qubit-count", "data-qubit", "operand", "measure-bit", "condition-bit", "quirk-entry"])
def test_an_over_long_number_is_a_codec_error_at_its_place(parse, doc, message):
    # int() refuses it with a plain ValueError; the codecs report it as malformed input, by line
    with pytest.raises(CodecError, match=message):
        parse(doc)


def test_parse_text_rejects_header_after_ops():
    with pytest.raises(CodecError, match="after ops"):
        parse_text("qubits 1\nh 0\nbits 0\n")


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_text_round_trip_on_random_circuits(data):
    qubit_count = data.draw(st.integers(min_value=1, max_value=4))
    bld = CircuitBuilder(qubit_count, range(qubit_count))
    bits: list[int] = []
    measured: set[int] = set()
    n_ops = data.draw(st.integers(min_value=0, max_value=12))
    for _ in range(n_ops):
        gate = data.draw(st.sampled_from(list(Gate)))
        free = [q for q in range(qubit_count) if q not in measured]
        if gate.arity == 2 and len(free) >= 2:
            a, b = data.draw(st.permutations(free))[:2]
            when = None
            if bits and data.draw(st.booleans()):
                when = (data.draw(st.sampled_from(bits)), data.draw(st.sampled_from((0, 1))))
            bld.append(gate, a, b, when=when)
        elif gate is Gate.MEASURE and free:
            q = data.draw(st.sampled_from(free))
            bits.append(bld.measure(q))
            bld.reset(q)  # keep data qubits legal to measure
        elif gate.arity == 1 and gate is not Gate.MEASURE and free:
            q = data.draw(st.sampled_from(free))
            bld.append(gate, q)
    circuit = bld.build()
    assert parse_text(emit_text(circuit)) == circuit


# --- Quirk URLs ------------------------------------------------------------

def test_export_single_t_gate():
    bld = CircuitBuilder(1, (0,))
    bld.t(0)
    url = export_quirk_url(bld.build())
    assert url.startswith(QUIRK_URL_PREFIX)
    assert quirk_cols(url) == [["Z^¼"]]


def test_export_cccz_columns():
    cols = quirk_cols(export_quirk_url(cccz_6t()))
    assert cols[0] == [1, 1, 1, 1, "H"]
    assert cols[15] == [1, 1, 1, 1, "Measure"]  # reset absorbed into Measure
    assert cols[16] == [1, 1, "•", "Z", "◦"]
    assert cols[17] == ["•", "Z", 1, 1, "•"]


def test_export_empty_circuit_is_minimal():
    url = export_quirk_url(Circuit(0, 0, (), frozenset()))
    assert quirk_cols(url) == []
    assert parse_quirk_url(url) == Circuit(0, 0, (), frozenset())


def test_quirk_round_trip_is_op_identical_for_cccz():
    assert parse_quirk_url(export_quirk_url(cccz_6t())) == cccz_6t()


def test_quirk_round_trip_is_op_identical_for_ladders():
    for circuit in all_synthesized():
        assert parse_quirk_url(export_quirk_url(circuit)) == circuit


def test_export_rejects_gate_on_measured_wire():
    bld = CircuitBuilder(1, ())
    bld.measure(0)
    bld.h(0)
    with pytest.raises(CodecError, match="measured wire"):
        export_quirk_url(bld.build())


def test_export_rejects_stray_reset():
    bld = CircuitBuilder(1, (0,))
    bld.h(0)
    bld.reset(0)
    with pytest.raises(CodecError, match=r"^op 1: reset not immediately following a measurement "
                                         r"of the same wire is not representable$"):
        export_quirk_url(bld.build())


def test_export_names_the_condition_of_a_conditioned_reset():
    # the reset follows its measurement: the condition is what a Quirk column cannot hold
    circuit = parse_text("qubits 2\nbits 1\ndata 0\nm 1 -> b0\nreset 1 if b0==1\n")
    with pytest.raises(CodecError, match=r"^op 1: conditioned reset is not representable$"):
        export_quirk_url(circuit)


def test_export_rejects_double_measurement():
    bld = CircuitBuilder(1, ())
    bld.measure(0)
    bld.reset(0)
    bld.measure(0)
    bld.reset(0)
    with pytest.raises(CodecError, match="measured twice"):
        export_quirk_url(bld.build())


def test_parse_quirk_rejects_unknown_gate():
    url = QUIRK_URL_PREFIX + urllib.parse.quote('{"cols":[["QFT"]]}', safe="")
    with pytest.raises(CodecError, match="QFT"):
        parse_quirk_url(url)


def test_parse_quirk_rejects_malformed_json():
    for payload in ("%7Bnope", urllib.parse.quote('{"cols":[],"gates":5}', safe=""),
                    urllib.parse.quote('{"gates":[{"id":[1]}]}', safe=""),
                    urllib.parse.quote('{"cols":[[true,"H"]]}', safe=""),
                    urllib.parse.quote('{"cols":[[1.0,"H"]]}', safe=""),
                    urllib.parse.quote('{"cols":[["H"]],"init":[1]}', safe="")):
        with pytest.raises(CodecError, match="malformed circuit JSON"):
            parse_quirk_url(QUIRK_URL_PREFIX + payload)


def test_parse_quirk_rejects_multi_controlled_z():
    url = QUIRK_URL_PREFIX + urllib.parse.quote(
        '{"cols":[["•","•","•","Z"]]}', safe="")
    with pytest.raises(CodecError, match="unsupported column"):
        parse_quirk_url(url)


def test_parse_quirk_requires_circuit_fragment():
    with pytest.raises(CodecError, match="#circuit="):
        parse_quirk_url("https://algassert.com/quirk")


def _quote(payload: str) -> str:
    return urllib.parse.quote(payload, safe="")


def test_parse_quirk_refuses_a_twice_encoded_link():
    # a fragment is percent-decoded once; a second layer of escapes is not guessed away
    with pytest.raises(CodecError, match="malformed circuit JSON"):
        parse_quirk_url(QUIRK_URL_PREFIX + _quote(_quote('{"cols":[["H"]]}')))


@pytest.mark.parametrize("gate_id", ["%48", "%5A%5E%C2%BC"])  # H and Z^¼, percent-encoded
def test_a_percent_escape_in_a_gate_id_stays_literal(gate_id):
    url = QUIRK_URL_PREFIX + _quote(json.dumps({"cols": [[gate_id]]}))
    with pytest.raises(CodecError, match=re.escape(f"unsupported gate id {gate_id!r}")):
        parse_quirk_url(url)


@pytest.mark.parametrize("fragment, ops", [
    ('{"cols":[["H"]]}', (Op(Gate.H, (0,)),)),
    ('{"cols":[["%48"]]}', (Op(Gate.H, (0,)),)),  # in a URL, %48 is an escaped H
    ('{"cols":[["%E2%80%A2","Z"]]}', (Op(Gate.CZ, (0, 1)),)),  # raw quotes, escaped non-ASCII
], ids=["raw", "raw-escaped-ascii", "partly-encoded"])
def test_a_fragment_not_fully_encoded_is_decoded_once(fragment, ops):
    assert parse_quirk_url(QUIRK_URL_PREFIX + fragment).ops == ops


def test_the_published_link_with_a_t_spelled_as_escapes_is_refused():
    # one Z^¼ spelled %5A%5E%C2%BC inside its JSON string is an unknown gate, not a T
    quoted_t = _quote('"Z^¼"')
    assert quoted_t in REFERENCE_QUIRK_CCCZ_URL
    url = REFERENCE_QUIRK_CCCZ_URL.replace(quoted_t, _quote('"%5A%5E%C2%BC"'), 1)
    with pytest.raises(CodecError, match=re.escape("unsupported gate id '%5A%5E%C2%BC'")):
        parse_quirk_url(url)


_PERCENT_TEXT = st.tuples(st.text(max_size=4), st.from_regex(r"%[0-9A-Fa-f]{2}", fullmatch=True),
                          st.text(max_size=4)).map("".join)


@settings(max_examples=60, deadline=None)
@given(payload=st.recursive(_PERCENT_TEXT, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(_PERCENT_TEXT, inner, max_size=3), max_leaves=8))
def test_percent_text_in_a_fragment_reads_back_verbatim(payload):
    doc = json.dumps(payload, ensure_ascii=False)
    assert codec._load_fragment(QUIRK_URL_PREFIX + _quote(doc)) == payload


IDENTITY_MARKER = '{"id":"~mark","name":"mark","matrix":"{{1,0},{0,1}}"}'


def test_parse_quirk_skips_a_marker_beside_a_gate():
    # a marker sharing a column with a gate is skipped and does not widen the register
    url = QUIRK_URL_PREFIX + urllib.parse.quote(
        '{"cols":[["~mark","H"],["Z^¼",1,"~mark"]],"gates":[' + IDENTITY_MARKER + "]}", safe="")
    circuit = parse_quirk_url(url)
    assert circuit == Circuit(2, 0, (Op(Gate.H, (1,)), Op(Gate.T, (0,))), frozenset({0, 1}))


def test_parse_quirk_marker_columns_add_no_op_and_no_wire():
    # three marker columns: the middle one lies inside the frame; a lone one frames nothing
    framed = '{"cols":[["~mark"],["H"],[1,1,"~mark"],["Z"],["~mark"]],"gates":[' + IDENTITY_MARKER + "]}"
    lone = '{"cols":[["H"],[1,1,"~mark"],["Z"]],"gates":[' + IDENTITY_MARKER + "]}"
    for payload in (framed, lone):
        circuit = parse_quirk_url(QUIRK_URL_PREFIX + urllib.parse.quote(payload, safe=""))
        assert circuit == Circuit(1, 0, (Op(Gate.H, (0,)), Op(Gate.Z, (0,))), frozenset({0}))


def test_parse_quirk_drops_a_column_of_controls_alone():
    url = QUIRK_URL_PREFIX + urllib.parse.quote(
        '{"cols":[["H"],["•","◦"],["Measure"],["•",1,"•"],[1,"X"]]}', safe="")
    circuit = parse_quirk_url(url)
    assert circuit.ops == (Op(Gate.H, (0,)), Op(Gate.MEASURE, (0,), 0), Op(Gate.RESET, (0,)),
                           Op(Gate.X, (1,)))
    assert (circuit.qubit_count, circuit.bit_count, circuit.data_qubits) == (3, 1, frozenset({1, 2}))


def test_reference_url_imports_to_the_synthesized_cccz():
    # marker framing drops the interactive harness around the payload
    assert parse_quirk_url(REFERENCE_QUIRK_CCCZ_URL) == cccz_6t()


def test_reference_url_verifies_against_the_oracle():
    imported = parse_quirk_url(REFERENCE_QUIRK_CCCZ_URL)
    assert len(imported.data_qubits) == 4
    assert check_implements(imported, oracle_cnz(3)).passed


def test_export_import_preserves_the_verdict():
    url = export_quirk_url(parse_quirk_url(REFERENCE_QUIRK_CCCZ_URL))
    before = check_implements(parse_quirk_url(REFERENCE_QUIRK_CCCZ_URL), oracle_cnz(3))
    after = check_implements(parse_quirk_url(url), oracle_cnz(3))
    assert after == before


def test_emit_text_is_byte_deterministic():
    a = emit_text(synth_cnz(CnZSpec(4), Method.OPTIMIZED))
    b = emit_text(synth_cnz(CnZSpec(4), Method.OPTIMIZED))
    assert a == b
