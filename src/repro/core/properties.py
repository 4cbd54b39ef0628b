"""Constructors for the trojan / init / fanout interval properties (Figs. 3-5).

All properties are 2-safety properties over two instances of the *same*
module: instance 0 and instance 1 of the IPC engine.  No golden model is
involved anywhere — this is the golden-free aspect of the method.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.core.config import DetectionConfig
from repro.errors import PropertyError
from repro.ipc.prop import IntervalProperty
from repro.rtl.fanout import FanoutAnalysis
from repro.rtl.ir import Module


def _data_inputs(module: Module, config: DetectionConfig) -> List[str]:
    if config.inputs is not None:
        unknown = [name for name in config.inputs if name not in module.inputs]
        if unknown:
            raise PropertyError(f"configured inputs are not primary inputs: {unknown}")
        return list(config.inputs)
    return module.data_inputs()


def _assumed_inputs(module: Module, config: DetectionConfig) -> List[str]:
    """Inputs assumed equal between the two instances.

    The miter of Fig. 2 feeds *all* inputs of both instances from the same
    source, so the equality assumption covers every primary input except the
    clock — including reset pins and inputs excluded from the fanout analysis.
    """
    assumed = [name for name in module.inputs if name not in module.clocks]
    for name in _data_inputs(module, config):
        if name not in assumed:
            assumed.append(name)
    return assumed


def _assumed_signals(analysis: FanoutAnalysis, k: int, config: DetectionConfig) -> List[str]:
    """Signals whose 2-safety equality is assumed at time t by property ``k``."""
    if k <= 0:
        return []
    if config.cumulative_assumptions:
        assumed = analysis.signals_up_to(k)
    else:
        assumed = analysis.signals_in_class(k)
    return sorted(assumed)


def _add_common_assumptions(
    prop: IntervalProperty,
    module: Module,
    analysis: FanoutAnalysis,
    config: DetectionConfig,
    data_inputs: Iterable[str],
    prove_time: int,
) -> None:
    for time in (0, prove_time):
        for name in data_inputs:
            prop.assume_equal(name, time)
    for waiver in config.waivers:
        if waiver.signal not in module.signals:
            raise PropertyError(f"waiver references unknown signal {waiver.signal!r}")
        prop.assume_equal(waiver.signal, 0)


def build_init_property(
    module: Module,
    analysis: FanoutAnalysis,
    config: Optional[DetectionConfig] = None,
) -> IntervalProperty:
    """The init property of Fig. 4.

    ``assume``: both instances receive the same inputs at time t.
    ``prove``:  all ``fanouts_CC1`` signals are equal at time t+1.
    """
    config = config or DetectionConfig()
    assumed_inputs = _assumed_inputs(module, config)
    prop = IntervalProperty(
        name="init_property",
        description="equal inputs at t imply equal fanouts_CC1 at t+1 (Fig. 4)",
    )
    _add_common_assumptions(prop, module, analysis, config, assumed_inputs, prove_time=1)
    for signal in sorted(analysis.proved_in_class(1)):
        prop.prove_equal(signal, 1)
    return prop


def build_fanout_property(
    module: Module,
    analysis: FanoutAnalysis,
    k: int,
    config: Optional[DetectionConfig] = None,
) -> IntervalProperty:
    """The fanout property of Fig. 5 for class ``k`` (``k >= 1``).

    ``assume``: ``fanouts_CCk`` (or, with cumulative assumptions, every class
    up to ``k``) are equal at time t, together with equal inputs.
    ``prove``:  ``fanouts_CCk+1`` signals are equal at time t+1.
    """
    if k < 1:
        raise PropertyError("fanout properties start at k = 1; use the init property for k = 0")
    config = config or DetectionConfig()
    assumed_inputs = _assumed_inputs(module, config)
    prop = IntervalProperty(
        name=f"fanout_property_{k}",
        description=(
            f"equal fanouts_CC{k} at t imply equal fanouts_CC{k + 1} at t+1 (Fig. 5)"
        ),
    )
    _add_common_assumptions(prop, module, analysis, config, assumed_inputs, prove_time=1)
    for signal in _assumed_signals(analysis, k, config):
        prop.assume_equal(signal, 0)
    for signal in sorted(analysis.proved_in_class(k + 1)):
        prop.prove_equal(signal, 1)
    return prop


def build_trojan_property(
    module: Module,
    analysis: FanoutAnalysis,
    config: Optional[DetectionConfig] = None,
    max_class: Optional[int] = None,
) -> IntervalProperty:
    """The monolithic trojan property of Fig. 3 (used by the ablation study).

    ``assume``: equal inputs at time t and, per the miter model, at every
    later time point of the window.
    ``prove``:  ``fanouts_CCk`` equal at time t+k for every class k.

    The decomposed init/fanout properties are the scalable equivalent
    (Theorem 1); this aggregate form exists to quantify that claim.
    """
    config = config or DetectionConfig()
    assumed_inputs = _assumed_inputs(module, config)
    depth = analysis.placement_depth
    if max_class is not None:
        depth = min(depth, max_class)
    if depth < 1:
        raise PropertyError("design has no input-reachable state or output signals")
    prop = IntervalProperty(
        name="trojan_property",
        description="aggregate interval property of Fig. 3",
    )
    for time in range(depth + 1):
        for name in assumed_inputs:
            prop.assume_equal(name, time)
    for waiver in config.waivers:
        prop.assume_equal(waiver.signal, 0)
    for k in range(1, depth + 1):
        for signal in sorted(analysis.proved_in_class(k)):
            prop.prove_equal(signal, k)
    return prop
