"""Naive loop-by-loop transcription of the decode/SINR definitions.

Deliberately independent of risnoma.linklayer: nothing here is vectorized
or shared, so agreement between the two is a real cross-check.
"""
from dataclasses import dataclass

import numpy as np


@dataclass
class LinkPlan:
    """One AP's plan in per-user form: clusters as lists of user ids.

    It states an AP's part of a ``SlotLinks`` in the form this
    transcription reads.  ``clusters`` lists each cluster's members by
    decode position, head first; ``position`` and ``cluster_of`` restate
    them per user id (any mapping indexed by id will do).
    """
    clusters: list                 # per cluster: members by position, head first
    position: np.ndarray           # user -> 1-based cluster position (head = 1)
    cluster_of: np.ndarray         # user -> cluster index
    v: np.ndarray                  # (N_A, N_R) analog
    w: np.ndarray                  # (N_R, N_R) digital columns
    zf_loaded: bool = False


def _beam(h_row, v, w_col):
    total = 0.0 + 0.0j
    for a in range(len(h_row)):
        acc = 0.0 + 0.0j
        for c in range(v.shape[1]):
            acc += v[a, c] * w_col[c]
        total += h_row[a] * acc
    return abs(total) ** 2


def _cluster_power(plan, alpha, n):
    return sum(alpha[u] for u in plan.clusters[n])


def _inter(h_eff, plans, alpha, user, own_ap, own_cluster):
    total = 0.0
    for mp, plan in enumerate(plans):
        for npp in range(len(plan.clusters)):
            if (mp, npp) == (own_ap, own_cluster):
                continue
            gain = _beam(h_eff[mp, user], plan.v, plan.w[:, npp])
            total += gain * _cluster_power(plan, alpha, npp)
    return total


def literal_sic_and_sinr(h_eff, plans, alpha, sigma2):
    """Returns (fail flags dict, sinr per user) straight from the definitions."""
    n_users = h_eff.shape[1]
    fail = {}
    sinr = np.zeros(n_users)
    for m, plan in enumerate(plans):
        for n, members in enumerate(plan.clusters):
            head = members[0]
            g_head = _beam(h_eff[m, head], plan.v, plan.w[:, n])
            i_head = _inter(h_eff, plans, alpha, head, m, n)
            for u in members[1:]:
                g_u = _beam(h_eff[m, u], plan.v, plan.w[:, n])
                i_u = _inter(h_eff, plans, alpha, u, m, n)
                stronger = sum(alpha[x] for x in members
                               if plan.position[x] < plan.position[u])
                dec_at_head = g_head * alpha[u] / (
                    stronger * g_head + i_head + sigma2)
                dec_at_self = g_u * alpha[u] / (
                    stronger * g_u + i_u + sigma2)
                fail[u] = 0 if dec_at_head >= dec_at_self else 1
            for u in members:
                g_u = _beam(h_eff[m, u], plan.v, plan.w[:, n])
                i_u = _inter(h_eff, plans, alpha, u, m, n)
                if plan.position[u] == 1:
                    residue = sum(fail[x] * alpha[x] for x in members[1:])
                    den = g_u * residue + i_u + sigma2
                else:
                    stronger = sum(alpha[x] for x in members
                                   if plan.position[x] < plan.position[u])
                    den = g_u * stronger + i_u + sigma2
                sinr[u] = g_u * alpha[u] / den
    return fail, sinr


def random_instance(rng, m=2, n_r=2, extra_users=2, n_a=None):
    """A random multi-AP plan over synthetic channels (no physics needed)."""
    n_a = n_a or 2 * n_r
    n_sub = n_a // n_r
    users_per_ap = n_r + extra_users
    total = m * users_per_ap
    h_eff = (rng.normal(size=(m, total, n_a))
             + 1j * rng.normal(size=(m, total, n_a)))
    plans = []
    for ap in range(m):
        base = ap * users_per_ap
        members_pool = list(range(base, base + users_per_ap))
        clusters = [[members_pool[i]] for i in range(n_r)]
        for idx, u in enumerate(members_pool[n_r:]):
            clusters[idx % n_r].append(u)
        v = np.zeros((n_a, n_r), dtype=complex)
        for n in range(n_r):
            phases = rng.uniform(0, 2 * np.pi, n_sub)
            v[n * n_sub:(n + 1) * n_sub, n] = np.exp(1j * phases) / np.sqrt(n_sub)
        w = rng.normal(size=(n_r, n_r)) + 1j * rng.normal(size=(n_r, n_r))
        for n in range(n_r):
            w[:, n] /= np.linalg.norm(v @ w[:, n])
        position, cluster_of = {}, {}
        for n, members in enumerate(clusters):
            order = members[:1] + sorted(members[1:], key=lambda u: rng.random())
            for pos, u in enumerate(order, start=1):
                position[u] = pos
                cluster_of[u] = n
            clusters[n] = order
        plans.append(LinkPlan(clusters, position, cluster_of, v, w))
    alpha = rng.uniform(0.0, 0.4, total)
    ap_of_user = np.repeat(np.arange(m), users_per_ap)
    return h_eff, plans, alpha, ap_of_user
