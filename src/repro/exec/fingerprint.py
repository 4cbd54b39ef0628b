"""Content fingerprints for the on-disk result cache.

A cached property result may only be replayed when *nothing that can change
the result* has changed: the elaborated netlist, the semantically relevant
parts of the detection configuration, the property class index, and the
serialized-record schema.  All four are folded into one SHA-256 hex digest,
the cache key of :class:`repro.exec.cache.ResultCache`.

The module fingerprint is a canonical serialization of the flat RTL IR, not
a pickle: expression trees are walked iteratively (AES S-box mux chains are
deep enough to overflow the recursion limit) and every dict is visited in
sorted order, so the digest is stable across Python versions and interning
behaviour.

Deliberately *excluded* from the config fingerprint are the knobs that do
not change any individual property's outcome: ``stop_at_first_failure`` and
``max_class`` only select *which* classes run, and ``jobs`` / ``cache_dir``
/ ``use_cache`` only select *how* they run.  A truncated audit therefore
warms the cache for a later full audit, and a serial run warms it for a
parallel one.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from repro.core.config import DetectionConfig
from repro.rtl import exprs
from repro.rtl.ir import Module

#: Version of the serialized class-record layout (see
#: :mod:`repro.exec.records`).  Part of every cache key, so a layout change
#: silently invalidates all previously written entries instead of trying to
#: read them.  v3: outcome records gained the sequential-mode fields
#: (``depth_reached``, ``first_divergence_cycle``).  v4: outcome records
#: gained the preprocessing telemetry (``sim_falsified``, ``nodes_before``,
#: ``nodes_after``, ``merged_nodes``, ``sweep_s``), and counterexample
#: witnesses became canonical under the simulation-guided settle.  v5: the
#: canonical witness settle runs solver inprocessing between checks
#: (vivified clauses propagate differently, so the CDCL search may land on
#: a different satisfying assignment than v4's) — witnesses cached by
#: earlier versions must not replay.  v6: outcome records gained the
#: cube-and-conquer telemetry (``cubes``, ``cubes_cached``), and the cache
#: gained two new record types under their own key shapes — split records
#: (the cube set of an aborted monolithic solve) and per-cube verdicts.
#: v7: outcome records gained the ``status`` field and the ``timeout`` /
#: ``error`` terminals (fault-tolerant execution) — older readers would
#: reject the new terminals, so the layouts must not alias.  v8: cube
#: splitting and solver inprocessing are gone — the config fingerprint lost
#: its ``split/`` and ``inprocess/`` tokens, the cache its split and cube
#: record kinds, and outcome records their ``cubes`` / ``cubes_cached``.
#: v9: the in-repo CDCL solver is the only one — the config fingerprint
#: lost its ``backend/`` token.
CACHE_SCHEMA_VERSION = 9


class _Hasher:
    """Tiny token-stream hasher: feed()s are length-prefixed, so the token
    boundaries are part of the digest (``("ab","c")`` != ``("a","bc")``)."""

    def __init__(self) -> None:
        self._digest = hashlib.sha256()

    def feed(self, token: str) -> None:
        data = token.encode("utf-8")
        self._digest.update(str(len(data)).encode("ascii"))
        self._digest.update(b":")
        self._digest.update(data)

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def _feed_expr(hasher: _Hasher, root: exprs.Expr, lut_texts: Dict[int, str]) -> None:
    """Feed a canonical pre-order token stream of ``root`` (iterative).

    ``lut_texts`` caches the text of each ROM table by identity: every
    instance of an inferred ROM shares one table tuple, so each distinct
    table is turned into text once.
    """
    stack: List[object] = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):  # a literal marker token
            hasher.feed(node)
            continue
        if isinstance(node, exprs.Const):
            hasher.feed(f"const/{node.width}/{node.value}")
        elif isinstance(node, exprs.Ref):
            hasher.feed(f"ref/{node.width}/{node.name}")
        elif isinstance(node, exprs.Unop):
            hasher.feed(f"unop/{node.width}/{node.op}")
            stack.append(node.operand)
        elif isinstance(node, exprs.Binop):
            hasher.feed(f"binop/{node.width}/{node.op}")
            stack.append(node.right)
            stack.append(node.left)
        elif isinstance(node, exprs.Mux):
            hasher.feed(f"mux/{node.width}")
            stack.append(node.otherwise)
            stack.append(node.then)
            stack.append(node.cond)
        elif isinstance(node, exprs.Concat):
            hasher.feed(f"concat/{node.width}/{len(node.parts)}")
            stack.extend(reversed(node.parts))
        elif isinstance(node, exprs.Slice):
            hasher.feed(f"slice/{node.width}/{node.lsb}")
            stack.append(node.base)
        elif isinstance(node, exprs.Lut):
            table = lut_texts.get(id(node.table))
            if table is None:
                table = lut_texts[id(node.table)] = ",".join(map(str, node.table))
            hasher.feed(f"lut/{node.width}/{table}")
            stack.append(node.index)
        else:  # future node types must not silently alias an existing hash
            hasher.feed(f"other/{type(node).__name__}/{node!r}")


def module_fingerprint(module: Module) -> str:
    """SHA-256 of the canonical serialization of an elaborated module."""
    hasher = _Hasher()
    # Keyed by id(): valid because ``module`` keeps every table alive.
    lut_texts: Dict[int, str] = {}
    hasher.feed("module")
    hasher.feed(module.name)
    for section, table in (("inputs", module.inputs), ("outputs", module.outputs),
                           ("signals", module.signals)):
        hasher.feed(section)
        for name in sorted(table):
            hasher.feed(f"{name}/{table[name]}")
    hasher.feed("clocks")
    for name in sorted(module.clocks):
        hasher.feed(name)
    hasher.feed("resets")
    for name in sorted(module.resets):
        hasher.feed(name)
    hasher.feed("comb")
    for name in sorted(module.comb):
        hasher.feed(name)
        _feed_expr(hasher, module.comb[name], lut_texts)
    hasher.feed("registers")
    for name in sorted(module.registers):
        register = module.registers[name]
        hasher.feed(f"{name}/{register.width}/{register.reset_value}")
        _feed_expr(hasher, register.next, lut_texts)
    return hasher.hexdigest()


def config_fingerprint(config: DetectionConfig) -> str:
    """SHA-256 of the semantically relevant configuration fields.

    The detection ``mode`` is always part of the digest; every other knob is
    folded in only for the mode it can affect.  Sequential outcomes depend
    on ``depth`` and ``reset_values`` but not on traced inputs, waivers, or
    the property-shape switches (the golden-model check has no fanout
    partition and no assumption machinery), and vice versa for
    combinational outcomes — hashing a knob into the mode it cannot
    influence would only make warm caches go cold.  A sequential rerun at
    the *same* depth therefore replays entirely from cache even when the
    waiver list changes, while a deeper bound misses and re-proves.

    Pure execution knobs — ``jobs``, ``cache_dir``, ``use_cache``,
    ``trace`` — are deliberately excluded: the allowlist
    below feeds only the named semantic fields, so a traced run replays
    (and populates) exactly the cache entries of an untraced one.
    """
    hasher = _Hasher()
    hasher.feed("config")
    hasher.feed(f"mode/{config.mode}")
    # The wall-clock deadline decides whether a hard class settles at all
    # (timeout outcomes are never cached, but a deadline also changes the
    # partial telemetry of every class that races it), so runs with
    # different deadlines must never share records.  Both modes check it.
    hasher.feed(f"check-timeout/{config.check_timeout_s}")
    if config.mode == "sequential":
        hasher.feed(f"depth/{config.depth}")
        hasher.feed("reset-values")
        for name in sorted(config.reset_values or {}):
            hasher.feed(f"{name}/{config.reset_values[name]}")
    else:
        inputs = list(config.inputs) if config.inputs is not None else None
        hasher.feed(f"inputs/{inputs!r}")
        hasher.feed(f"cumulative/{config.cumulative_assumptions}")
        hasher.feed("waivers")
        for signal in sorted(config.waived_signals()):
            hasher.feed(signal)
    return hasher.hexdigest()


def pair_module_fingerprint(design_fp: str, golden_fp: str) -> str:
    """Combined netlist fingerprint of a (design, golden model) pair.

    Sequential-mode cache entries depend on *both* netlists: a re-generated
    golden model must invalidate replays just like a changed design.  The
    pair digest is ordered (design first), so swapping the two roles never
    aliases.
    """
    hasher = _Hasher()
    hasher.feed("module-pair")
    hasher.feed(design_fp)
    hasher.feed(golden_fp)
    return hasher.hexdigest()


def class_cache_key(module_fp: str, config_fp: str, index: int) -> str:
    """Cache key of one property class under one (netlist, config) pair."""
    hasher = _Hasher()
    hasher.feed(f"repro-result-cache/v{CACHE_SCHEMA_VERSION}")
    hasher.feed(module_fp)
    hasher.feed(config_fp)
    hasher.feed(f"class/{index}")
    return hasher.hexdigest()
