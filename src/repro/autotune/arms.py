"""Candidate-configuration enumeration with cost-model priors.

An :class:`Arm` is one executable configuration — an algorithm (plus
kR1W's ``p``), a machine width when the caller left it open, a fused
backend for the fast path, or a serving tile size. :func:`compute_arms`
enumerates every configuration that is *feasible* for a given input
(shape divisibility, rectangular support) and attaches the predicted
``C/w + S + (B+1)l`` milliseconds from the calibrated
:class:`~repro.analysis.model.RuntimeModel` as its prior. The planner
ranks these priors, so with no measurements ``algorithm="auto"`` is
exactly the model's Table II argmin at that size.

Shapes the model cannot score directly are approximated:

* Rectangular inputs use the equivalent-area square side (only the
  rectangular-capable algorithms are enumerated for them), rounded up to
  a width multiple where the predictor requires it.
* The serving tile arms (:func:`serving_tile_arms`) use an element-count
  proxy — per-update work grows like ``t^2`` while the per-dataset grid
  bookkeeping shrinks like ``(n/t)^2`` — because the tiled store runs on
  numpy, not the HMM executor. Measurements dominate quickly there.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.model import RuntimeModel
from ..machine.params import MachineParams
from ..sat.tuning import candidate_ps

__all__ = ["Arm", "compute_arms", "serving_tile_arms"]

#: Width candidates offered when the caller did not pin MachineParams.
DEFAULT_WIDTHS: Tuple[int, ...] = (16, 32)

#: p-grid density for the kR1W family. Table II sweeps the full grid, and
#: pricing any p is O(1); the online planner thins it only to bound the
#: bandit's arm set, since every arm may be measured before it converges.
DEFAULT_P_CANDIDATES = 9


@dataclasses.dataclass(frozen=True)
class Arm:
    """One executable configuration with its predicted cost."""

    arm_id: str
    prior: float  # predicted cost; any scale consistent within one key
    algorithm: Optional[str] = None
    p: Optional[float] = None
    width: Optional[int] = None
    fused: Optional[str] = None
    tile: Optional[int] = None

    def algorithm_kwargs(self) -> Dict[str, float]:
        """Constructor kwargs for :func:`repro.sat.registry.make_algorithm`."""
        return {"p": self.p} if self.p is not None else {}


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


def _model_for_width(model: RuntimeModel, width: int) -> RuntimeModel:
    """The calibrated model re-parameterized for a different warp width."""
    if width == model.params.width:
        return model
    return RuntimeModel(
        params=MachineParams(width=width, latency=model.params.latency),
        unit_ns=model.unit_ns,
        stride_discount=model.stride_discount,
    )


def _registry_flags():
    """(name -> (requires_block_multiple, supports_rectangular)) without
    instantiating anything at import time."""
    from ..sat.registry import _FACTORIES

    return {
        name: (factory.requires_block_multiple, factory.supports_rectangular)
        for name, factory in _FACTORIES.items()
    }


def compute_arms(
    rows: int,
    cols: int,
    params: Optional[MachineParams] = None,
    *,
    model: Optional[RuntimeModel] = None,
    widths: Optional[Sequence[int]] = None,
    max_p_candidates: int = DEFAULT_P_CANDIDATES,
    fused_options: Sequence[Optional[str]] = (None,),
) -> List[Arm]:
    """Every feasible (algorithm, p, width, fused) configuration for a
    SAT compute of shape ``rows x cols``, with model-predicted priors.

    ``params=None`` leaves the machine width open: each algorithm is
    offered at every ``widths`` candidate (default ``(16, 32)``), and the
    winning arm carries the width for the caller to pin. A pinned
    ``params`` restricts enumeration to its width. ``fused_options``
    multiplies the arms across fast-path backends; backends share the
    model prior (the model cannot distinguish them), so they separate
    purely through measurement.
    """
    if model is None:
        from ..analysis.calibration import default_model

        model = default_model()
    if params is not None:
        width_candidates: Sequence[int] = (params.width,)
    elif widths is not None:
        width_candidates = tuple(widths)
    else:
        width_candidates = DEFAULT_WIDTHS
    square = rows == cols
    n_eff = rows if square else int(math.isqrt(rows * cols))

    arms: List[Arm] = []
    flags = _registry_flags()
    for width in width_candidates:
        width_model = _model_for_width(model, width)
        multiple = rows % width == 0 and cols % width == 0
        n_model = max(width, _round_up(n_eff, width))
        for name, (needs_multiple, rectangular) in flags.items():
            if not square and not rectangular:
                continue
            if needs_multiple and not multiple:
                continue
            # 4R1W's predictor accepts any size; everything else needs a
            # width multiple, so the rounded effective size stands in.
            n_for_model = n_eff if name == "4R1W" else n_model
            prior = width_model.predict_ms(name, n_for_model)
            arms.append(
                Arm(
                    arm_id=_arm_id(name, width=width, pinned=params is not None),
                    prior=prior,
                    algorithm=name,
                    width=None if params is not None else width,
                )
            )
        if square and multiple:
            for p in candidate_ps(n_model, width, max_candidates=max_p_candidates):
                prior = width_model.predict_ms("kR1W", n_model, p=p)
                arms.append(
                    Arm(
                        arm_id=_arm_id(
                            "kR1W", width=width, pinned=params is not None, p=p
                        ),
                        prior=prior,
                        algorithm="kR1W",
                        p=p,
                        width=None if params is not None else width,
                    )
                )
    if tuple(fused_options) != (None,):
        arms = [
            dataclasses.replace(
                arm,
                arm_id=arm.arm_id + (f"+fused={fused}" if fused else ""),
                fused=fused,
            )
            for arm in arms
            for fused in fused_options
        ]
    return arms


def _arm_id(name: str, *, width: int, pinned: bool, p: Optional[float] = None) -> str:
    parts = [name]
    if p is not None:
        parts.append(f"[p={p:.6g}]")
    if not pinned:
        parts.append(f"@w{width}")
    return "".join(parts)


def serving_tile_arms(
    rows: int,
    cols: int,
    tiles: Sequence[int],
    update_weight: float = 0.5,
) -> List[Arm]:
    """Tile-size arms for the tiled serving store.

    The prior is an element-count proxy for one update plus one query:
    an update recomputes one ``t x t`` tile SAT and refreshes the
    ``(rows/t) x (cols/t)`` grid bookkeeping; a query touches a constant
    number of tiles plus ``O(t)`` boundary elements. ``update_weight``
    sets the workload mix (1.0 = update-only).
    """
    if not 0.0 <= update_weight <= 1.0:
        raise ValueError(f"update_weight must be in [0, 1], got {update_weight}")
    arms = []
    for tile in tiles:
        grid = math.ceil(rows / tile) * math.ceil(cols / tile)
        update_cost = tile * tile + grid
        query_cost = 8.0 + 2.0 * tile
        prior = update_weight * update_cost + (1.0 - update_weight) * query_cost
        arms.append(Arm(arm_id=f"tile={tile}", prior=float(prior), tile=tile))
    return arms
