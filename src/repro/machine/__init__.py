"""Memory machine models: DMM, UMM, HMM, and the asynchronous HMM.

Two complementary implementations of the paper's models live here:

* :mod:`repro.machine.micro` — cycle-exact request-level simulators of the
  DMM and UMM (Section II semantics, Figure 4 timing), for worked examples
  and validation;
* :mod:`repro.machine.macro` — a transaction-counting executor for the
  asynchronous HMM on which the SAT algorithms actually run at scale;
* :mod:`repro.machine.cost` — the global-memory access cost model of
  Section III that converts measured counters into predicted time units;
* :mod:`repro.machine.engine` — the execution engine: compiled task plans
  for the macro executor, cached per ``(algorithm, shape, machine)`` key,
  with a fused fast path that applies memoized per-kernel tallies.
"""

from .cost import (
    CostBreakdown,
    access_cost,
    breakdown,
    cost_formula,
    timing_chart,
    transaction_cost,
)
from .engine import (
    ExecutionEngine,
    ExecutionPlan,
    KernelPlan,
    PlanCache,
    PlanKey,
    compile_plan,
    default_engine,
    execute_plan,
)
from .macro import AccessCounters, BlockContext, GlobalMemory, HMMExecutor
from .params import MachineParams, gtx_780_ti, tiny

__all__ = [
    "AccessCounters",
    "BlockContext",
    "CostBreakdown",
    "ExecutionEngine",
    "ExecutionPlan",
    "GlobalMemory",
    "HMMExecutor",
    "KernelPlan",
    "MachineParams",
    "PlanCache",
    "PlanKey",
    "compile_plan",
    "default_engine",
    "execute_plan",
    "access_cost",
    "breakdown",
    "cost_formula",
    "gtx_780_ti",
    "timing_chart",
    "tiny",
    "transaction_cost",
]
