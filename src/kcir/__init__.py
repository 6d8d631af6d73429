"""kcir: finite-horizon causal-stream semantics for sequential circuits.

Circuits are modeled as functions whose output at tick t depends only on
samples at ticks up to t, each written as a step function from (state,
control symbol, input samples) to (state, output), so simulation is one pass
over the stimulus.  Where a control signal (a clock, a select line, an
address stream) determines which input samples matter, the circuit carries a
read map, written as a read step from (read state, control symbol, tick) to
(read state, refs read at that tick).  :func:`classify` decides whether the
prefix order of control histories, pushed through that map, is a partial
order on read sets, and so whether the circuit is time-preserving, with
concrete witnesses when it is not; the :mod:`kcir.classifier` docstring
describes how.

A circuit is defined once, by ``init``/``step`` and, where it has a read
map, ``read_init``/``read_step``; ``output_stream`` and the randomized
checks are folds of those steps, and the read map ``reads`` is the fold of
``read_step``.  A stream is its samples: ``output_stream`` takes
the control symbols and one sample sequence per input channel, and a
:class:`CausalSignal` is an alphabet and the samples of ticks 0..t.

A clocked register block has one form, a :class:`DomainAst` of boolean
expressions, whether it comes from a ``.kcir`` file or is built in, and
:mod:`kcir.dsl` builds its element: the compiled step and the read step.
``counter_element`` (whose output is the count as a binary word, most
significant bit first) and ``toggler_pair_element`` are defined in
:mod:`kcir.dsl`, the other built-ins in :mod:`kcir.circuits`.
"""

from .circuits import (
    CausalityReport,
    CircuitElement,
    ReadSoundnessReport,
    SimulationError,
    abmem_element,
    causality_check,
    dff_element,
    mux_element,
    output_stream,
    read_soundness_check,
    sr_latch_element,
)
from .classifier import (
    AntisymmetryWitness,
    AxiomReport,
    Classification,
    ClassifyStats,
    ReadMap,
    ReadSet,
    RefPoint,
    Verdict,
    classify,
)
from .dsl import (
    BoolExpr,
    Call,
    CircuitAst,
    DomainAst,
    ElaborationError,
    Lit,
    ParseError,
    SourceSpan,
    Var,
    counter_element,
    elaborate,
    load_circuit,
    parse,
    pretty_print,
    toggler_pair_element,
)
from .signals import (
    BINARY,
    Alphabet,
    CausalSignal,
    Tick,
    history_count,
    prefix_leq,
    split_symbol,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AntisymmetryWitness",
    "AxiomReport",
    "BINARY",
    "BoolExpr",
    "Call",
    "CausalSignal",
    "CausalityReport",
    "CircuitAst",
    "CircuitElement",
    "Classification",
    "ClassifyStats",
    "DomainAst",
    "ElaborationError",
    "Lit",
    "ParseError",
    "ReadMap",
    "ReadSet",
    "ReadSoundnessReport",
    "RefPoint",
    "SimulationError",
    "SourceSpan",
    "Tick",
    "Var",
    "Verdict",
    "abmem_element",
    "causality_check",
    "classify",
    "counter_element",
    "dff_element",
    "elaborate",
    "history_count",
    "load_circuit",
    "mux_element",
    "output_stream",
    "parse",
    "prefix_leq",
    "pretty_print",
    "read_soundness_check",
    "split_symbol",
    "sr_latch_element",
    "toggler_pair_element",
]
