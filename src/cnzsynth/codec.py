"""Bit-exact serialization: a line-based circuit text format and Quirk URLs.

Text format (one op per line, canonical form lowercase with single spaces):

    qubits <N>
    bits <M>
    data <i j k ...>
    h q | x q | z q | s q | sdg q | t q | tdg q | sx q | sxdg q
    cx c t | cz a b | m q -> b<k> | reset q
    <any non-measurement line> if b<k>==0|1

Parsing tolerates blank lines and ``#`` comments; absent headers default to
zero qubits/bits and all-data. A syntax error, or a ``qubits`` header above
MAX_QUBITS (2^16), stops at its line; ``validate``'s violations come in one
message, each by source line. Emission is byte-deterministic and
``parse_text(emit_text(c))`` is op-identical for every valid circuit.

Quirk URLs (https://algassert.com/quirk#circuit=<percent-encoded JSON>)
cover the same alphabet via the name map H, X, Z, Z^½, Z^-½, Z^¼, Z^-¼,
X^½, X^-½, •, ◦, Measure. Conventions needed to make the mapping exact:

  - Quirk has no reset and its measured wires stay classical, so an IR
    measurement immediately followed by a reset of the same wire exports as
    one ``Measure`` column, and every imported ``Measure`` becomes a
    measure-then-reset pair. Round-trips are op-identical because
    synthesized circuits always reset measured ancillas.
  - Control dots on a measured wire are classical conditions on that
    wire's bit; ``•`` demands 1 and ``◦`` demands 0.
  - Named custom gates with identity matrices are annotations and never
    become ops. When two or more columns consist solely of such markers,
    they are treated as a frame around the circuit proper (interactive
    sessions bannering the payload with state prep and checking harness
    outside), and only the span strictly between the outermost marker
    columns is imported.
  - Wire k maps to qubit k; measured wires import as ancilla qubits,
    everything else as data.
"""
from __future__ import annotations

import json
import re
import urllib.parse

from .circuit import MAX_QUBITS, Circuit, Gate, Op, require_valid

QUIRK_URL_PREFIX = "https://algassert.com/quirk#circuit="

_GATE_BY_MNEMONIC = {g.value: g for g in Gate}

_QUIRK_NAME = {
    Gate.H: "H",
    Gate.X: "X",
    Gate.Z: "Z",
    Gate.S: "Z^½",
    Gate.SDG: "Z^-½",
    Gate.T: "Z^¼",
    Gate.TDG: "Z^-¼",
    Gate.SX: "X^½",
    Gate.SXDG: "X^-½",
}
_GATE_BY_QUIRK_NAME = {name: gate for gate, name in _QUIRK_NAME.items()}

_CONTROL = "•"       # • fires on 1
_ANTI_CONTROL = "◦"  # ◦ fires on 0

_CONDITION_RE = re.compile(r"^b([0-9]+)==([01])$")
_BIT_RE = re.compile(r"^b([0-9]+)$")


class CodecError(ValueError):
    """Raised on syntax errors, unsupported constructs, or invalid circuits."""


def emit_text(circuit: Circuit) -> str:
    """Canonical text document for a valid circuit (byte-deterministic)."""
    require_valid(circuit, CodecError)
    lines = [
        f"qubits {circuit.qubit_count}",
        f"bits {circuit.bit_count}",
        "data" + "".join(f" {q}" for q in sorted(circuit.data_qubits)),
    ]
    for op in circuit.ops:
        if op.gate is Gate.MEASURE:
            lines.append(f"m {op.qubits[0]} -> b{op.bit}")
            continue
        line = op.gate.value + "".join(f" {q}" for q in op.qubits)
        if op.condition is not None:
            line += f" if b{op.condition[0]}=={op.condition[1]}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int, what: str) -> int:
    if not (token.isascii() and token.isdigit()):
        raise CodecError(f"line {lineno}: expected {what}, got {token!r}")
    return int(token)


def parse_text(doc: str) -> Circuit:
    """Parse a circuit text document; inverse of ``emit_text`` on canonical docs."""
    qubit_count = 0
    bit_count = 0
    data: frozenset[int] | None = None
    seen_header = {"qubits": False, "bits": False, "data": False}
    ops: list[Op] = []
    op_lines: list[int] = []
    known: dict[str, Op] = {}  # each distinct op line, converted once

    for lineno, raw in enumerate(doc.splitlines(), start=1):
        if raw in known:
            ops.append(known[raw])
            op_lines.append(lineno)
            continue
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]

        if head in seen_header:
            if ops:
                raise CodecError(f"line {lineno}: header {head!r} after ops")
            if seen_header[head]:
                raise CodecError(f"line {lineno}: duplicate header {head!r}")
            seen_header[head] = True
            if head == "qubits":
                if len(tokens) != 2:
                    raise CodecError(f"line {lineno}: usage: qubits <N>")
                qubit_count = _parse_int(tokens[1], lineno, "qubit count")
                if qubit_count > MAX_QUBITS:  # validate's rule, applied before a header-sized set is built
                    raise CodecError(f"line {lineno}: qubit count {qubit_count} exceeds {MAX_QUBITS}")
            elif head == "bits":
                if len(tokens) != 2:
                    raise CodecError(f"line {lineno}: usage: bits <M>")
                bit_count = _parse_int(tokens[1], lineno, "bit count")
            else:
                data = frozenset(_parse_int(t, lineno, "data qubit") for t in tokens[1:])
            continue

        condition: tuple[int, int] | None = None
        if "if" in tokens:
            at = tokens.index("if")
            if at != len(tokens) - 2:
                raise CodecError(f"line {lineno}: condition must be the trailing 'if b<k>==0|1'")
            m = _CONDITION_RE.match(tokens[-1])
            if not m:
                raise CodecError(f"line {lineno}: malformed condition {tokens[-1]!r}")
            condition = (int(m.group(1)), int(m.group(2)))
            tokens = tokens[:at]

        gate = _GATE_BY_MNEMONIC.get(head)
        if gate is None:
            raise CodecError(f"line {lineno}: unknown op {head!r}")
        bit = None
        if gate is Gate.MEASURE:
            if len(tokens) != 4 or tokens[2] != "->" or not (m := _BIT_RE.match(tokens[3])):
                raise CodecError(f"line {lineno}: usage: m <q> -> b<k>")
            bit, tokens = int(m.group(1)), tokens[:2]
        # operand count and a condition on a measurement are validate's rules, reported by line below
        operands = tokens[1:]
        digits = "".join(operands)
        qubits = (tuple(map(int, operands)) if digits.isascii() and digits.isdigit()
                  else tuple(_parse_int(t, lineno, "qubit") for t in operands))
        known[raw] = Op(gate, qubits, bit, condition)
        ops.append(known[raw])
        op_lines.append(lineno)

    if data is None:
        data = frozenset(range(qubit_count))
    circuit = Circuit(qubit_count, bit_count, tuple(ops), data)
    require_valid(circuit, CodecError, op_lines)
    return circuit


def export_quirk_url(circuit: Circuit) -> str:
    """Encode a circuit as a Quirk URL, one gate per column.

    Raises CodecError for constructs outside the representable subset:
    re-measured wires, quantum gates on measured wires, conditioned resets,
    or resets that do not immediately follow a measurement of the same wire.
    """
    require_valid(circuit, CodecError)
    cols: list[list] = []
    bit_wire: dict[int, int] = {}
    measured: set[int] = set()
    ops = circuit.ops
    i = 0
    while i < len(ops):
        op = ops[i]
        if op.gate is Gate.MEASURE:
            q = op.qubits[0]
            if q in measured:
                raise CodecError(f"op {i}: wire {q} measured twice is not representable")
            entries = {q: "Measure"}
            measured.add(q)
            bit_wire[op.bit] = q
            nxt = ops[i + 1] if i + 1 < len(ops) else None
            if nxt is not None and nxt.gate is Gate.RESET and nxt.qubits == (q,) and nxt.condition is None:
                i += 1  # the reset is implied by the Measure column on re-import
        elif op.gate is Gate.RESET and op.condition is not None:
            raise CodecError(f"op {i}: conditioned reset is not representable")
        elif op.gate is Gate.RESET:
            raise CodecError(
                f"op {i}: reset not immediately following a measurement of the "
                "same wire is not representable")
        else:
            for q in op.qubits:
                if q in measured:
                    raise CodecError(f"op {i}: quantum gate on measured wire {q} is not representable")
            if op.gate is Gate.CX:
                entries = {op.qubits[0]: _CONTROL, op.qubits[1]: "X"}
            elif op.gate is Gate.CZ:
                entries = {op.qubits[0]: _CONTROL, op.qubits[1]: "Z"}
            else:
                entries = {op.qubits[0]: _QUIRK_NAME[op.gate]}
            if op.condition is not None:
                bit, value = op.condition
                entries[bit_wire[bit]] = _CONTROL if value == 1 else _ANTI_CONTROL
        width = max(entries) + 1
        col: list = [1] * width
        for w, name in entries.items():
            col[w] = name
        cols.append(col)
        i += 1
    payload = json.dumps({"cols": cols}, ensure_ascii=False, separators=(",", ":"))
    return QUIRK_URL_PREFIX + urllib.parse.quote(payload, safe="")


def _decode_fragment(url: str) -> str:
    at = url.find("#circuit=")
    if at < 0:
        raise CodecError("not a Quirk circuit URL (missing '#circuit=')")
    decoded = url[at + len("#circuit="):]
    for _ in range(4):  # links copied through escaping layers may be multiply encoded
        nxt = urllib.parse.unquote(decoded)
        if nxt == decoded:
            break
        decoded = nxt
    return decoded


def _identity_matrix_string(text: str) -> bool:
    return re.sub(r"\s+", "", text) == "{{1,0},{0,1}}"


def _is_empty_wire(entry) -> bool:
    """Quirk marks an empty wire with the number 1; JSON true and 1.0 are malformed."""
    if entry == 1 and type(entry) is not int:
        raise CodecError(f"malformed circuit JSON: column entry {json.dumps(entry)} is not 1")
    return entry == 1


def _is_marker_column(col: list, identity_ids: set[str]) -> bool:
    has_marker = False
    for entry in col:
        if _is_empty_wire(entry):
            continue
        if isinstance(entry, str) and entry in identity_ids:
            has_marker = True
            continue
        return False
    return has_marker


def parse_quirk_url(url: str) -> Circuit:
    """Decode a Quirk circuit URL into the IR.

    Columns are processed left to right, multi-gate columns top to bottom;
    one measurement bit is allocated per ``Measure`` in encounter order and
    each measured wire is reset immediately after its measurement. Raises
    CodecError for malformed JSON or gates outside the supported subset
    (reported verbatim).
    """
    try:
        payload = json.loads(_decode_fragment(url))
    except json.JSONDecodeError as exc:
        raise CodecError(f"malformed circuit JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(payload.get("cols", []), list):
        raise CodecError("malformed circuit JSON: expected an object with a 'cols' list")
    custom_gates = payload.get("gates", [])
    if not isinstance(custom_gates, list):
        raise CodecError("malformed circuit JSON: 'gates' is not a list")
    init = payload.get("init", [])
    if not isinstance(init, list) or any(type(state) is not int or state != 0 for state in init):
        raise CodecError("malformed circuit JSON: 'init' must be a list of 0s (every wire starts in |0>)")

    identity_ids: set[str] = set()
    custom_ids: set[str] = set()
    for entry in custom_gates:
        if not isinstance(entry, dict) or not isinstance(entry.get("id"), str):
            raise CodecError("malformed circuit JSON: bad custom gate entry")
        custom_ids.add(entry["id"])
        if _identity_matrix_string(str(entry.get("matrix", ""))):
            identity_ids.add(entry["id"])

    cols = payload.get("cols", [])
    for col in cols:
        if not isinstance(col, list):
            raise CodecError("malformed circuit JSON: column is not a list")
    marker_at = [i for i, col in enumerate(cols) if _is_marker_column(col, identity_ids)]
    if len(marker_at) >= 2:
        cols = cols[marker_at[0] + 1 : marker_at[-1]]

    ops: list[Op] = []
    measured: dict[int, int] = {}  # wire -> bit
    bit_count = 0
    used = -1

    for col in cols:  # a marker column left inside the frame holds no gate, dot or Measure
        dots: list[tuple[int, int]] = []
        gates: list[tuple[int, str]] = []
        meas: list[int] = []
        for wire, entry in enumerate(col):
            if _is_empty_wire(entry):
                continue
            if not isinstance(entry, str):
                raise CodecError(f"unsupported column entry {entry!r}")
            if entry in identity_ids:
                continue
            if entry in custom_ids:
                raise CodecError(f"unsupported gate id {entry!r}")
            if entry == _CONTROL:
                dots.append((wire, 1))
            elif entry == _ANTI_CONTROL:
                dots.append((wire, 0))
            elif entry == "Measure":
                meas.append(wire)
            elif entry in _GATE_BY_QUIRK_NAME:
                gates.append((wire, entry))
            else:
                raise CodecError(f"unsupported gate id {entry!r}")
            used = max(used, wire)

        if meas:
            if dots or gates:
                raise CodecError("unsupported column: measurement mixed with other operations")
            for wire in meas:
                if wire in measured:
                    raise CodecError(f"unsupported column: wire {wire} measured twice")
                ops.append(Op(Gate.MEASURE, (wire,), bit_count))
                ops.append(Op(Gate.RESET, (wire,)))
                measured[wire] = bit_count
                bit_count += 1
            continue

        quantum = [(w, v) for w, v in dots if w not in measured]
        classical = [(w, v) for w, v in dots if w in measured]
        if len(classical) > 1:
            raise CodecError("unsupported column: more than one classical control")
        condition = (measured[classical[0][0]], classical[0][1]) if classical else None
        for wire, _name in gates:
            if wire in measured:
                raise CodecError(f"unsupported column: quantum gate on measured wire {wire}")
        if not gates:
            continue  # dots with nothing to control are a no-op
        if quantum:
            if len(quantum) != 1 or len(gates) != 1 or gates[0][1] not in ("X", "Z") or quantum[0][1] != 1:
                raise CodecError("unsupported column: only singly-controlled X or Z are representable")
            cw = quantum[0][0]
            tw, name = gates[0]
            ops.append(Op(Gate.CX if name == "X" else Gate.CZ, (cw, tw), None, condition))
        else:
            for wire, name in gates:
                ops.append(Op(_GATE_BY_QUIRK_NAME[name], (wire,), None, condition))

    qubit_count = used + 1
    data = frozenset(range(qubit_count)) - set(measured)
    circuit = Circuit(qubit_count, bit_count, tuple(ops), data)
    require_valid(circuit, CodecError)
    return circuit
