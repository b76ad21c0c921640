"""Per-kernel traffic/parallelism profiles of every SAT algorithm.

The flat cost model (Section III) sees only totals: ``C``, ``S``, ``B``.
That is enough for Table II's times but blind to *how the traffic is
distributed across kernels* — a stage of 1R1W that touches one block
cannot use more than one DMM no matter how cheap its traffic is. The
occupancy-aware model (:mod:`repro.analysis.occupancy`) needs, per kernel,
the coalesced/stride traffic and the number of independent block tasks;
this module derives those profiles analytically, mirroring the executors'
kernel structure exactly (tests assert agreement with per-kernel traces).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from ..errors import ConfigurationError
from ..layout.blocking import BlockGrid, triangle_diagonals
from ..machine.params import MachineParams
from ..util.validation import require_multiple


@dataclasses.dataclass(frozen=True)
class KernelProfile:
    """Traffic and parallelism of one barrier-delimited kernel."""

    label: str
    coalesced: int
    stride: int
    blocks: int

    @property
    def stages(self) -> float:
        """Pipeline stages at full bandwidth (needs ``w`` at evaluation)."""
        raise AttributeError("use stages_for(width)")

    def stages_for(self, width: int) -> float:
        return self.coalesced / width + self.stride


def _scan_profile(label: str, n_rows: int, n_cols: int, w: int) -> KernelProfile:
    traffic = n_rows * n_cols + max(0, n_rows - 1) * n_cols
    return KernelProfile(label, coalesced=traffic, stride=0, blocks=n_cols // w)


def profile_2r2w(n: int, params: MachineParams) -> List[KernelProfile]:
    """2R2W: one coalesced scan kernel, one stride scan kernel."""
    w = params.width
    scan = n * n + n * (n - 1)
    return [
        _scan_profile("column-scan", n, n, w),
        KernelProfile("row-scan(stride)", coalesced=0, stride=scan, blocks=n // w),
    ]


def profile_4r4w(n: int, params: MachineParams) -> List[KernelProfile]:
    """4R4W: two scan kernels around two transpose kernels."""
    w = params.width
    m2 = (n // w) ** 2
    t = KernelProfile("transpose", coalesced=2 * n * n, stride=0, blocks=m2)
    return [
        _scan_profile("column-scan-1", n, n, w),
        t,
        _scan_profile("column-scan-2", n, n, w),
        dataclasses.replace(t, label="transpose-2"),
    ]


def profile_4r1w(n: int, params: MachineParams) -> List[KernelProfile]:
    """4R1W: one all-stride kernel per anti-diagonal, closed-form masks."""
    w = params.width
    profiles = []
    for k in range(2 * n - 1):
        length = min(k, n - 1) - max(0, k - (n - 1)) + 1
        # Closed forms for the executor's neighbor masks: the diagonal
        # contains an i=0 element and a j=0 element iff k <= n-1 (the same
        # single element when k == 0).
        edge = 1 if k <= n - 1 else 0
        n_left = length - edge  # elements with j > 0
        n_up = length - edge  # elements with i > 0
        n_diag = length - 2 * edge + (1 if k == 0 else 0)
        stride = 2 * length + n_left + n_up + n_diag
        profiles.append(
            KernelProfile(
                f"stage{k}",
                coalesced=0,
                stride=stride,
                blocks=-(-length // w),
            )
        )
    return profiles


def _diagonal_traffic(s: int, m: int, w: int) -> Tuple[int, int]:
    """(coalesced words, block count) of 1R1W's stage ``s`` in closed form.

    The per-block 1R1W stage traffic of
    :func:`repro.analysis.formulas.counts_1r1w` summed over the diagonal:
    per block ``2 w^2`` block traffic, a corner-prefixed
    ``w(+1)`` read per interior edge, and ``w`` published boundary words per
    non-terminal edge.
    """
    length = min(s, m - 1) - max(0, s - (m - 1)) + 1
    top_edge = 1 if s <= m - 1 else 0  # block with bi == 0 on this diagonal
    left_edge = top_edge  # symmetric: block with bj == 0
    both_interior = length - 2 * top_edge + (1 if s == 0 else 0)
    bottom_edge = 1 if s >= m - 1 else 0  # block with bi == m-1
    right_edge = bottom_edge
    coalesced = (
        2 * w * w * length
        + (length - top_edge) * w + both_interior  # neighbor rows above
        + (length - left_edge) * w + both_interior  # neighbor columns left
        + (length - bottom_edge) * w  # published bottom rows
        + (length - right_edge) * w  # published right columns
    )
    return coalesced, length


def profile_2r1w(n: int, params: MachineParams, prefix: str = "") -> List[KernelProfile]:
    """2R1W: step1 / step2(+merged recursion) / step3 kernel profiles."""
    w = params.width
    if n <= w:
        return [KernelProfile(f"{prefix}sat-single-block", 2 * n * n, 0, 1)]
    m = n // w
    mm = m - 1
    step1 = KernelProfile(
        f"{prefix}step1",
        coalesced=(m * m - 1) * w * w + 2 * mm * m * w,
        stride=mm * mm,
        blocks=m * m - 1,
    )
    scans_c = 2 * (mm * n + (mm - 1) * n)
    scan_blocks = 2 * (n // w)
    if mm <= w:
        step2 = KernelProfile(
            f"{prefix}step2", coalesced=scans_c + 2 * mm * mm, stride=0,
            blocks=scan_blocks + 1,
        )
        middle = [step2]
    else:
        mp = -(-mm // w) * w
        sub = profile_2r1w(mp, params, prefix=f"{prefix}M.")
        first = sub[0]
        step2 = KernelProfile(
            f"{prefix}step2+{first.label}",
            coalesced=scans_c + first.coalesced,
            stride=first.stride,
            blocks=scan_blocks + first.blocks,
        )
        middle = [step2] + list(sub[1:])
    step3 = KernelProfile(
        f"{prefix}step3",
        coalesced=2 * m * m * w * w + 2 * m * mm * w,
        stride=mm * mm,
        blocks=m * m,
    )
    return [step1] + middle + [step3]


def profile_1r1w(n: int, params: MachineParams) -> List[KernelProfile]:
    """1R1W: one kernel per block anti-diagonal (closed-form traffic)."""
    w = params.width
    m = n // w
    profiles = []
    for stage in range(2 * m - 1):
        coalesced, length = _diagonal_traffic(stage, m, w)
        profiles.append(
            KernelProfile(f"stage{stage}", coalesced=coalesced, stride=0, blocks=length)
        )
    return profiles


def _triangle_profiles(
    m: int, w: int, t: int, seeded: bool, label: str
) -> List[KernelProfile]:
    """Closed-form phase profiles of one kR1W corner triangle of ``t``
    diagonals (``t(t+1)/2`` blocks; both triangles are congruent)."""
    if t <= 0:
        return []
    n_blocks = t * (t + 1) // 2
    n_runs = t  # one run per touched block-column; same per block-row
    # sums: block read + CS/RS row writes.
    sums = KernelProfile(f"{label}:sums", n_blocks * (w * w + 2 * w), 0, n_blocks)
    # scans: per column run L: 2Lw coalesced + L stride (T column writes);
    # per row run L: 2Lw coalesced. Seeded borders add w(+1) per run; for
    # the bottom-right triangle every run starts at bj>0/bi>0 (asserted by
    # the implementation), so the +1 always applies.
    scan_c = 4 * n_blocks * w
    scan_s = n_blocks
    if seeded:
        scan_c += 2 * n_runs * (w + 1)
    scans = KernelProfile(f"{label}:scans", scan_c, scan_s, 2 * n_runs)
    # corners: per row run, read t-row + write G-row (+ seed read).
    corner_c = 2 * n_blocks
    corner_s = n_runs if seeded else 0
    corners = KernelProfile(f"{label}:corners", corner_c, corner_s, n_runs)
    # fix: block read/write + top/left rows + corner + published aux rows.
    fix_c = n_blocks * (2 * w * w + 2 * w)
    if seeded:
        # bottom-right triangle: t blocks sit on each terminal edge.
        fix_c += (n_blocks - t) * 2 * w
    else:
        # top-left triangle (t <= m-1): no block touches a terminal edge.
        fix_c += n_blocks * 2 * w
    fix = KernelProfile(f"{label}:fix", fix_c, n_blocks, n_blocks)
    return [sums, scans, corners, fix]


def profile_kr1w(n: int, params: MachineParams, p: float) -> List[KernelProfile]:
    """kR1W: triangle phases around the 1R1W band, in executor order."""
    w = params.width
    m = n // w
    BlockGrid(n, w)  # shape validation
    t = triangle_diagonals(m, p)
    band = []
    for stage in range(t, 2 * (m - 1) - t + 1):
        coalesced, length = _diagonal_traffic(stage, m, w)
        band.append(KernelProfile(f"C:stage{stage}", coalesced, 0, length))
    return (
        _triangle_profiles(m, w, t, seeded=False, label="A")
        + band
        + _triangle_profiles(m, w, t, seeded=True, label="B")
    )


def kernel_profiles(
    name: str, n: int, params: MachineParams, p: Optional[float] = None
) -> List[KernelProfile]:
    """Per-kernel (traffic, blocks) profile of algorithm ``name`` at size ``n``."""
    if name != "4R1W":
        require_multiple(n, params.width)
    if name == "2R2W":
        return profile_2r2w(n, params)
    if name == "4R4W":
        return profile_4r4w(n, params)
    if name == "4R1W":
        return profile_4r1w(n, params)
    if name == "2R1W":
        return profile_2r1w(n, params)
    if name == "1R1W":
        return profile_1r1w(n, params)
    if name == "1.25R1W":
        return profile_kr1w(n, params, 0.5)
    if name == "kR1W":
        if p is None:
            raise ConfigurationError("kR1W profile requires the mixing parameter p")
        return profile_kr1w(n, params, p)
    raise ConfigurationError(f"no profile for algorithm {name!r}")
