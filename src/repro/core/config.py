"""Configuration of the detection flow."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ConfigError

#: Supported detection modes: the paper's golden-free combinational 2-safety
#: flow (default) and the bounded design-vs-golden sequential mode.
DETECTION_MODES = ("combinational", "sequential")


def _require_int(value: object, name: str, minimum: int) -> None:
    """Reject non-integers *including* ``bool`` for integer config fields.

    ``bool`` is a subclass of ``int``, so a bare ``isinstance(value, int)``
    silently accepts ``jobs=True`` (a worker count of 1) or ``depth=False``;
    callers passing booleans almost certainly mixed up two keyword arguments,
    which must fail at construction, not mid-run.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")


def validate_reset_entry(name: object, value: object) -> None:
    """Validate one ``reset_values`` entry (register name -> reset value).

    The single rule set for reset overrides, shared by
    :class:`DetectionConfig` and by direct
    :class:`repro.core.unroll.SequentialUnroller` construction — whichever
    entry path an override takes, the same inputs are accepted.
    """
    if not isinstance(name, str) or not name.strip():
        raise ConfigError(f"reset_values keys must be register names, got {name!r}")
    _require_int(value, f"reset value of {name!r}", 0)


def validate_input_names(names: Sequence[str], source: str = "") -> None:
    """Reject empty, whitespace-padded, or duplicate input signal names.

    The single source of truth for input-list validation: used both by
    :meth:`DetectionConfig.__post_init__` and by the CLI-facing
    :func:`repro.api.parse_input_list`.  ``source`` names the offending
    input list in error messages (e.g. the raw ``--inputs`` text).
    """
    where = f" in input list {source!r}" if source else ""
    seen = set()
    for name in names:
        if not isinstance(name, str) or not name.strip():
            raise ConfigError(
                f"input names must be non-empty strings{where}, got {name!r}"
            )
        if name != name.strip():
            raise ConfigError(
                f"input name {name!r}{where} has surrounding whitespace; strip it first"
            )
        if name in seen:
            raise ConfigError(f"duplicate input signal {name!r}{where}")
        seen.add(name)


@dataclass(frozen=True)
class Waiver:
    """A manually disqualified dependency (Sec. V-B, scenario 2).

    After inspecting a counterexample, a verification engineer may decide that
    the dependency of some signal on earlier computations is legitimate design
    behaviour, not a Trojan.  A waiver for that signal adds the 2-safety
    equality assumption ``instance1.signal@t == instance2.signal@t`` to every
    property, exactly like the paper's "equality for x can then be assumed".
    """

    signal: str
    reason: str = ""


@dataclass
class DetectionConfig:
    """Tuning knobs of one audit (:class:`repro.api.DetectionSession`).

    Attributes
    ----------
    inputs:
        The accelerator's data inputs (Algorithm 1's ``inputs`` argument).
        Defaults to every primary input that is not a clock or reset.
    cumulative_assumptions:
        When true (default), the property for class ``k+1`` assumes equality of
        *all* classes ``1..k`` instead of only ``fanouts_CCk``.  This is the
        automated form of the paper's Sec. V-B scenario 1 (re-ordering /
        strengthening with already-proven equalities): only signals proven by
        earlier properties of the same run are assumed, so soundness is
        unaffected, and structural false alarms caused by cross-class fanin
        disappear.  Set to false for the strict, paper-literal property shape.
    waivers:
        Manually disqualified dependencies (Sec. V-B scenario 2).
    stop_at_first_failure:
        Algorithm 1 returns at the first counterexample (default).  When
        false, the flow keeps checking all remaining properties and reports
        every failure — convenient for analysing a design in one run.
    max_class:
        Optional upper bound on the number of fanout iterations, mainly for
        tests and for experimenting with truncated flows.  The coverage
        check counts only the classes a truncated run proved, so signals
        left to the unchecked properties report as uncovered.
    jobs:
        Parallelism of the execution subsystem (:mod:`repro.exec`).  1
        (default) settles classes inline on the calling process; N > 1
        shards property classes — and, in a batch, designs — over N forked
        worker processes with per-worker solver-context affinity.
    cache_dir:
        Directory of the persistent on-disk result cache.  When set, settled
        property classes are stored content-addressed by a fingerprint of
        the elaborated netlist, the semantic configuration and the class
        index; later audits replay unchanged classes without any solver
        work.  ``None`` (default) disables caching entirely.
    use_cache:
        When false, ``cache_dir`` is neither read nor written (the CLI's
        ``--no-cache``); useful for forcing a clean re-proof into an
        otherwise warm cache directory.
    mode:
        Detection mode.  ``"combinational"`` (default) is the paper's
        golden-free 2-safety flow over a symbolic starting state;
        ``"sequential"`` unrolls the design against a *golden* model for
        ``depth`` cycles from the reset state and checks every common output
        for bounded divergence (one property class per output; see
        :mod:`repro.core.unroll`).
    depth:
        Unrolling bound of the sequential mode (cycles from reset, >= 1).
        Ignored by the combinational mode.
    reset_values:
        Per-register overrides of the sequential mode's reset state
        (register name -> value); registers without an override start at
        their declared reset value, or 0.  Ignored by the combinational
        mode.
    trace:
        When true, the run records hierarchical spans (:mod:`repro.obs`):
        worker chunks collect per-phase timings and ship them back with
        their result records, and the report carries a per-phase profile.
        A pure execution knob like ``jobs``: excluded from the config
        fingerprint, stripped by report normalization, zero behavior
        change when off.
    task_retries:
        How many times a parallel task whose worker process *died* (crash,
        OOM kill, SIGKILL) is requeued onto a respawned worker before its
        classes are quarantined as ``error`` outcomes (>= 0; default 2).
        A pure execution knob like ``jobs``: retry histories never change
        verdicts or normalized reports.  Ignored when ``jobs`` is 1.
    check_timeout_s:
        Optional per-class wall-clock deadline in seconds (> 0, or None to
        disable).  A SAT check that exceeds the deadline is aborted at the
        solver's conflict-poll seam and the class settles as an inconclusive
        ``timeout`` outcome carrying partial telemetry instead of hanging
        the run.  Semantic for caching purposes: a timeout bound changes
        which classes settle, so it participates in the config fingerprint.
    """

    inputs: Optional[Sequence[str]] = None
    cumulative_assumptions: bool = True
    waivers: List[Waiver] = field(default_factory=list)
    stop_at_first_failure: bool = True
    max_class: Optional[int] = None
    jobs: int = 1
    cache_dir: Optional[str] = None
    use_cache: bool = True
    mode: str = "combinational"
    depth: int = 10
    reset_values: Optional[Dict[str, int]] = None
    trace: bool = False
    task_retries: int = 2
    check_timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        """Fail at construction, not mid-run (see :class:`repro.errors.ConfigError`)."""
        if self.max_class is not None:
            _require_int(self.max_class, "max_class", 0)
        _require_int(self.jobs, "jobs", 1)
        if self.cache_dir is not None and not str(self.cache_dir).strip():
            raise ConfigError("cache_dir must be a non-empty path (or None)")
        if self.mode not in DETECTION_MODES:
            raise ConfigError(
                f"unknown detection mode {self.mode!r}; "
                f"available: {', '.join(DETECTION_MODES)}"
            )
        _require_int(self.depth, "depth", 1)
        if not isinstance(self.trace, bool):
            raise ConfigError(f"trace must be a bool, got {self.trace!r}")
        _require_int(self.task_retries, "task_retries", 0)
        if self.check_timeout_s is not None:
            if isinstance(self.check_timeout_s, bool) or not isinstance(
                self.check_timeout_s, (int, float)
            ):
                raise ConfigError(
                    f"check_timeout_s must be a number of seconds (or None), "
                    f"got {self.check_timeout_s!r}"
                )
            if self.check_timeout_s <= 0:
                raise ConfigError(
                    f"check_timeout_s must be > 0, got {self.check_timeout_s!r}"
                )
        if self.reset_values is not None:
            if not isinstance(self.reset_values, dict):
                raise ConfigError(
                    f"reset_values must be a dict of register name -> value, "
                    f"got {self.reset_values!r}"
                )
            for name, value in self.reset_values.items():
                validate_reset_entry(name, value)
        if self.inputs is not None:
            validate_input_names(self.inputs)

    # ------------------------------------------------------------------ #
    # Serialization (the audit service's submission body, and anywhere a
    # configuration crosses a process or network boundary)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, Any]:
        """JSON-native dict covering every field (``from_dict`` inverse)."""
        return {
            "inputs": list(self.inputs) if self.inputs is not None else None,
            "cumulative_assumptions": self.cumulative_assumptions,
            "waivers": [
                {"signal": waiver.signal, "reason": waiver.reason}
                for waiver in self.waivers
            ],
            "stop_at_first_failure": self.stop_at_first_failure,
            "max_class": self.max_class,
            "jobs": self.jobs,
            "cache_dir": self.cache_dir,
            "use_cache": self.use_cache,
            "mode": self.mode,
            "depth": self.depth,
            "reset_values": dict(self.reset_values) if self.reset_values is not None else None,
            "trace": self.trace,
            "task_retries": self.task_retries,
            "check_timeout_s": self.check_timeout_s,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DetectionConfig":
        """Reconstruct a configuration from :meth:`to_dict` output.

        Missing keys keep their defaults (a partial dict is a valid config
        overlay); unknown keys raise :class:`ConfigError` so a typoed field
        in a service submission fails loudly instead of silently running
        with the default.  All value validation is ``__post_init__``'s.
        """
        if not isinstance(data, dict):
            raise ConfigError(
                f"serialized config must be a dict, got {type(data).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown config field(s) {', '.join(unknown)}; "
                f"known fields: {', '.join(sorted(known))}"
            )
        kwargs: Dict[str, Any] = dict(data)
        if "waivers" in kwargs:
            entries = kwargs["waivers"]
            if not isinstance(entries, list):
                raise ConfigError(f"waivers must be a list, got {entries!r}")
            waivers: List[Waiver] = []
            for entry in entries:
                if not isinstance(entry, dict) or "signal" not in entry:
                    raise ConfigError(
                        f"each waiver must be a dict with a 'signal' key, got {entry!r}"
                    )
                waivers.append(
                    Waiver(signal=entry["signal"], reason=entry.get("reason", ""))
                )
            kwargs["waivers"] = waivers
        return cls(**kwargs)

    def waived_signals(self) -> List[str]:
        return [waiver.signal for waiver in self.waivers]

    def with_waivers(self, *signals: str, reason: str = "") -> "DetectionConfig":
        """A copy of this configuration with additional waived signals."""
        new_waivers = list(self.waivers) + [Waiver(signal=name, reason=reason) for name in signals]
        return replace(self, waivers=new_waivers)
