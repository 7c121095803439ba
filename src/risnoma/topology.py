"""Room geometry and the network layout, decided once as arrays: AP/RIS
placement, the user drop, the AP-RIS and AP-AP adjacencies that the comm
graph's edges follow, and the per-AP user table whose SE columns head the
NOMA clusters and whose IoT columns join them."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig

SE, IOT = 0, 1


@dataclass
class Topology:
    """AP i serves users i*K .. i*K + K - 1, its SE users first, so
    ``users`` is ``arange(U).reshape(M, K)``.  The layout arrays are
    read-only: every graph and plan of an env shares them."""
    ap_positions: np.ndarray      # (M, 3) m
    ris_positions: np.ndarray     # (J, 3) m
    user_positions: np.ndarray    # (U, 3) m
    user_kind: np.ndarray         # (U,) SE=0 / IOT=1
    ap_of_user: np.ndarray        # (U,) serving AP index
    ap_ris: np.ndarray            # (M, J) bool: RIS within radius of the AP
    ap_ap: np.ndarray             # (M, M) bool: another AP within radius
    users: np.ndarray             # (M, K) user ids of each AP, SE ids first


def build_topology(config: NetworkConfig, rng: np.random.Generator) -> Topology:
    """Drop APs on the ceiling, RISs on the long walls, users uniformly.

    Deterministic for a fixed generator state; only user positions consume
    random draws, so AP/RIS placement is identical across seeds.
    """
    m, j = config.num_aps, config.num_ris
    lx, ly, lz = config.room_x, config.room_y, config.room_z

    ap_xs = (np.arange(m) + 0.5) * lx / m
    ap_positions = np.column_stack([ap_xs, np.full(m, ly / 2), np.full(m, lz)])

    # alternate RISs between the two long walls
    ris_positions = np.zeros((j, 3))
    for idx in range(j):
        wall = idx % 2
        along = (idx // 2 + 0.5) * lx / max(1, -(-j // 2))
        ris_positions[idx] = (along, 0.0 if wall == 0 else ly, lz * 0.6)

    users = config.total_users
    user_positions = np.column_stack([
        rng.uniform(0, lx, users),
        rng.uniform(0, ly, users),
        np.full(users, 1.0),
    ])
    per_ap = config.users_per_ap
    ap_of_user = np.repeat(np.arange(m), per_ap)
    kind = np.tile(
        np.array([SE] * config.se_users_per_ap + [IOT] * config.iot_users_per_ap),
        m,
    )

    radius = config.neighbor_radius
    ap = ap_positions[:, None]
    ap_ris = np.linalg.norm(ap - ris_positions, axis=-1) <= radius
    ap_ap = np.linalg.norm(ap - ap_positions, axis=-1) <= radius
    np.fill_diagonal(ap_ap, False)
    table = np.arange(users).reshape(m, per_ap)
    for arr in (ap_ris, ap_ap, table):
        arr.flags.writeable = False
    return Topology(ap_positions, ris_positions, user_positions, kind,
                    ap_of_user, ap_ris, ap_ap, table)


def dump_topology(topo: Topology, path) -> None:
    """Structured plain-text dump for eyeballing a generated layout."""
    lines = ["# risnoma topology dump", f"aps {len(topo.ap_positions)}"]
    for i, p in enumerate(topo.ap_positions):
        lines.append(f"ap {i} pos {p[0]:.3f} {p[1]:.3f} {p[2]:.3f} "
                     f"neighbor_ris {np.flatnonzero(topo.ap_ris[i]).tolist()} "
                     f"neighbor_ap {np.flatnonzero(topo.ap_ap[i]).tolist()}")
    lines.append(f"ris {len(topo.ris_positions)}")
    for i, p in enumerate(topo.ris_positions):
        lines.append(f"ris {i} pos {p[0]:.3f} {p[1]:.3f} {p[2]:.3f} "
                     f"neighbor_ap {np.flatnonzero(topo.ap_ris[:, i]).tolist()}")
    lines.append(f"users {len(topo.user_positions)}")
    for u, p in enumerate(topo.user_positions):
        kind = "se" if topo.user_kind[u] == SE else "iot"
        lines.append(f"user {u} kind {kind} ap {topo.ap_of_user[u]} "
                     f"pos {p[0]:.3f} {p[1]:.3f} {p[2]:.3f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
