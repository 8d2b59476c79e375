"""The layers the traced run wraps and the per-layer metrics it reports.

`targets` lists the library attributes that get a span wrapper;
`catalogue` names every per-layer metric with its unit, in the order
BENCHMARK.json lists them; `aggregate` turns the spans of the traced ops
into those metrics. Counts, times and bytes are per traced op.
"""

from __future__ import annotations

import os

SIM_FUNCS = ("apply_gate.H", "apply_gate.CNOT", "apply_gate.X",
             "apply_gate.Sdg", "measure_z", "apply_block_pauli",
             "apply_block_isometry", "contract_block_isometry",
             "contract_block_state", "remove_block", "kron_states",
             "permute_wires")
CSS_FUNCS = ("encode_blocks", "decode_blocks", "correct_errors",
             "logical_readout", "build", "key_rules")
SYM_FUNCS = ("keygen", "encrypt", "evaluate", "ft_t_gadget", "decrypt",
             "readout")
ASYM_FUNCS = ("keygen", "encrypt", "decrypt", "refresh", "evaluate_session")
CODES_FUNCS = ("build_syndrome_table", "min_distance", "codewords")
FILES_FUNCS = ("write_json", "dumps", "transcript_records")
LIBRARY = ("sim", "css", "codes", "gf2", "symmetric", "asymmetric", "files",
           "cli")
MODULES = LIBRARY + ("bench",)  # "bench" is the op's own code
KEY_RULES = ("h_rule", "sdgx_rule", "cnot_rule")
AMP_BYTES = 16  # one complex128 amplitude


def _register_qubits(args, result) -> dict:
    """Largest register among the call's input state and returned states."""
    outs = result if isinstance(result, tuple) else (result,)
    sizes = [s.num_qubits for s in (args[0], *outs) if hasattr(s, "num_qubits")]
    return {"m": max(sizes)}


def targets(lib) -> list[tuple]:
    """(owner, attribute, span name, attrs function) for every wrapper.
    `lib` maps module names to the imported cssfhe modules."""
    sim, css = lib["sim"], lib["css"]
    out = [(sim, "apply_gate", lambda a: "sim.apply_gate." + a[1].kind,
            _register_qubits)]
    out += [(sim, f, "sim." + f, _register_qubits)
            for f in SIM_FUNCS if not f.startswith("apply_gate.")]
    out += [(css, f, "css." + f, None) for f in CSS_FUNCS if f != "key_rules"]
    out += [(css.KeyEvolver, rule, "css.key_rules", None) for rule in KEY_RULES]
    attrs = {
        ("symmetric", "encrypt"): lambda a, r: {"t_budget": a[2]},
        ("asymmetric", "evaluate_session"): lambda a, r: {"gates": len(a[1].gates)},
        ("files", "write_json"): lambda a, r: {"bytes": os.path.getsize(a[0])},
    }
    for mod, funcs in (("symmetric", SYM_FUNCS), ("asymmetric", ASYM_FUNCS)):
        out += [(lib[mod], f, f"{mod}.{f}", attrs.get((mod, f)))
                for f in funcs if f != "readout"]
    out += [(lib["codes"], f, "codes." + f, None) for f in CODES_FUNCS]
    out.append((lib["gf2"], "mat_mul", "gf2.mat_mul", None))
    out += [(lib["files"], f, "files." + f, attrs.get(("files", f)))
            for f in FILES_FUNCS]
    out.append((lib["cli"], "main", "cli.main", None))
    return out


def _timed(prefix: str, funcs) -> list[tuple[str, str]]:
    return [(f"{prefix}.{f}.{k}", u) for f in funcs
            for k, u in (("calls", "count/op"), ("self_s", "s/op"))]


def catalogue() -> list[tuple[str, str]]:
    out = []
    for f in SIM_FUNCS:
        out += [(f"sim.{f}.calls", "count/op"), (f"sim.{f}.self_s", "s/op"),
                (f"sim.{f}.amp_bytes", "B/op-computed"),
                (f"sim.{f}.gbps", "GB/s-computed")]
    out += _timed("css", CSS_FUNCS)
    out += [("css.key_rules.cached_ratio", "ratio"),
            ("css.correct_errors.applied_ratio", "ratio")]
    out += _timed("symmetric", SYM_FUNCS)
    out.append(("symmetric.ancilla_used_ratio", "ratio"))
    out += _timed("asymmetric", ASYM_FUNCS)
    out.append(("asymmetric.gates_per_refresh", "gates/refresh"))
    out += _timed("codes", CODES_FUNCS)
    out += _timed("gf2", ("mat_mul",))
    out += _timed("files", FILES_FUNCS)
    out.append(("files.bytes_written", "B/op"))
    out += _timed("cli", ("main",))
    out += [(f"{m}.self_share", "ratio") for m in MODULES]
    out += [("peak_register_qubits", "qubits"),
            ("keyholder_calls_per_op", "calls/op"),
            ("trace.overhead_ratio", "ratio")]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _attr_sum(spans, keep, name: str, key: str) -> int:
    return sum((spans[i][5] or {}).get(key, 0) for i in keep
               if spans[i][0] == name)


def aggregate(spans: list[list]) -> dict[str, float]:
    """Per-layer values from the spans of traced ops (op id >= 0).

    Self time is a span's duration minus the durations of its direct
    children. Entries the traced run fills in itself (peak register,
    key-holder calls, overhead) are not set here."""
    keep = [i for i, s in enumerate(spans) if s[4] is not None and s[4] >= 0]
    dur = {i: spans[i][2] - spans[i][1] for i in keep}
    self_ns = dict(dur)
    has_sim = {i: False for i in keep}
    children: dict[int, list[int]] = {}
    for i in reversed(keep):  # children were opened after their parents
        parent = spans[i][3]
        if parent >= 0:
            self_ns[parent] -= dur[i]
            children.setdefault(parent, []).append(i)
            has_sim[parent] |= has_sim[i] or spans[i][0].startswith("sim.")

    calls: dict[str, int] = {}
    self_total: dict[str, int] = {}
    amp: dict[str, int] = {}
    for i in keep:
        name, attrs = spans[i][0], spans[i][5]
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0) + self_ns[i]
        if attrs and "m" in attrs:
            amp[name] = amp.get(name, 0) + AMP_BYTES * (1 << attrs["m"])

    n_ops = calls.get("bench.op", 0)
    op_ns = sum(dur[i] for i in keep if spans[i][0] == "bench.op")
    out: dict[str, float] = {}
    for name, unit in catalogue():
        layer, _, key = name.rpartition(".")
        if key == "calls":
            out[name] = _ratio(calls.get(layer, 0), n_ops)
        elif key == "self_s":
            out[name] = _ratio(self_total.get(layer, 0) / 1e9, n_ops)
        elif key == "amp_bytes":
            out[name] = _ratio(amp.get(layer, 0), n_ops)
        elif key == "gbps":
            out[name] = _ratio(amp.get(layer, 0), self_total.get(layer, 0))
        elif key == "self_share":
            mod_ns = sum(v for n, v in self_total.items()
                         if n.split(".")[0] == layer)
            out[name] = _ratio(mod_ns, op_ns)

    rules = [i for i in keep if spans[i][0] == "css.key_rules"]
    out["css.key_rules.cached_ratio"] = _ratio(
        sum(not has_sim[i] for i in rules), len(rules))
    corrections = [i for i in keep if spans[i][0] == "css.correct_errors"]
    out["css.correct_errors.applied_ratio"] = _ratio(
        sum(any(spans[c][0] == "sim.apply_block_pauli"
                for c in children.get(i, ())) for i in corrections),
        len(corrections))
    out["symmetric.ancilla_used_ratio"] = _ratio(
        calls.get("symmetric.ft_t_gadget", 0),
        _attr_sum(spans, keep, "symmetric.encrypt", "t_budget"))
    out["asymmetric.gates_per_refresh"] = _ratio(
        _attr_sum(spans, keep, "asymmetric.evaluate_session", "gates"),
        calls.get("asymmetric.refresh", 0))
    out["files.bytes_written"] = _ratio(
        _attr_sum(spans, keep, "files.write_json", "bytes"), n_ops)
    return out
