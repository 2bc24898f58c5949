"""Block-coefficient systems of the solver cascade.

Starting from the follower's Riccati solution P, the pipeline stacks the
original state with the internal model states and adjoint processes of the
two nested robust control problems:

  hat stage        2n forward / 2n backward   (follower best response)
  check stage      3n forward / 2n backward   (physical state adjoined)
  blackboard stage 5n forward / 5n backward   (leader-side worst case)
  doublehat stage 10n forward / 10n backward  (leader optimality system)

The follower quantities every stage shares are formed and checked once,
by `follower_terms`.  The check stage reads the hat stage's blocks and
stacks the physical-state row on them, so each block of the follower's
system is formed once, by `build_hat`.  Each builder forms its blocks
exactly at the grid nodes, for all nodes at once as (N+1, rows, cols)
arrays, and wraps them as matrix paths; no symbolic simplification is
attempted, so every block can be audited entry by entry against its
definition.  The one exception is the 10n stage's A2 and C2, J A1 J and
J C1 J with J = diag(I_5n, -I_5n), which the stage does not store: each
read forms them from its A1 and C1.  The 2n, 5n and 10n stages map their
blocks to the unified Riccati form in their `problem()` method, and
`decoupling` turns a solved stage into its martingale integrand and
closed loop.  The 10n stage stores its offsets
as trailing columns of the blocks they sit beside, which is the form the
joint [Phat | phihat] march reads.

Component layout of the ten n-blocks of the doublehat stage (0-based):

  forward  Xhat: [x, xbar, qbar, p~_1, p~_2 | a_0 .. a_4]
  backward Yhat: [q~_0 .. q~_4 | xtil, xtilbar, qtilbar, ybar, pbar]

where (x, xbar, qbar) is the 3n check-stage forward state, (p~_1, p~_2)
the forward adjoint of the follower backward pair, q~ the backward adjoint
of the 5n forward stack, a the forward adjoint of the 5n backward stack,
and (xtil, xtilbar, qtilbar, ybar, pbar) the blackboard backward stack.
The layout follows from stacking each adjoint pair in the order the
underlying processes were stacked; the feedback formulas read off
component slots accordingly with `block_row`: x at slot 0 and xbar at
slot 1 of the forward stack, and xtil at slot 5, ybar at slot 8 and pbar
at slot 9 of the backward stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backward import LEFT, RiccatiProblem, tabled
from .model import GameSpec, MatrixPath, RegularityError


def block_row(slot: int, n: int, blocks: int = 10) -> np.ndarray:
    """The n x (blocks*n) selector picking the given n-block (0-based slot)."""
    row = np.zeros((n, blocks * n))
    row[:, slot * n:(slot + 1) * n] = np.eye(n)
    return row


# ---------------------------------------------------------------------------
# follower ingredients shared by several builders


@dataclass(frozen=True)
class FollowerTerms:
    """Follower quantities of the cascade at every grid node, as
    (N+1, rows, cols) arrays.

    With Rt1 = R1 + D1'P D1 the follower's control weight:

      Rt1inv      Rt1^{-1}
      K           B1'P + D1'P C, the follower's gain numerator
      BK, DK      B1 Rt1^{-1} K and D1 Rt1^{-1} K
      BB, BD,     B1 Rt1^{-1} B1', B1 Rt1^{-1} D1',
      DB, DD      D1 Rt1^{-1} B1', D1 Rt1^{-1} D1'
      aR          (2/alpha) R0^{-1}, the follower-side worst-case gain
      gR          (2/gamma) R0hat^{-1}, the leader-side worst-case gain
      B2eff       B2 - BD P D2, the leader's drift column after the
                  follower's reaction (D2eff likewise for the diffusion)
      w, sig      BD P sigma and sigma - DD P sigma
      R           Rt1^{-1} R1 Rt1^{-1}, the follower-substitution weight
      DPD1        D2'P D1
      Rbb         R2 + DPD1 R DPD1', the leader's reduced control weight
      Rbb_max_eig max eigenvalue of Rbb's symmetric part at each node, the
                  margin checked against -delta
      Rbbinv      Rbb^{-1}
      W2          Rbb^{-1} R2 Rbb^{-1}, the leader's weight on its gain-map
                  output, as R is the follower's
      cross       DPD1 R D1'P sigma, the constant leader control offset
    """

    P: np.ndarray
    Rt1inv: np.ndarray
    K: np.ndarray
    BK: np.ndarray
    DK: np.ndarray
    BB: np.ndarray
    BD: np.ndarray
    DB: np.ndarray
    DD: np.ndarray
    aR: np.ndarray
    gR: np.ndarray
    B2eff: np.ndarray
    D2eff: np.ndarray
    w: np.ndarray
    sig: np.ndarray
    R: np.ndarray
    DPD1: np.ndarray
    Rbb: np.ndarray
    Rbb_max_eig: np.ndarray
    Rbbinv: np.ndarray
    W2: np.ndarray
    cross: np.ndarray


def follower_terms(spec: GameSpec, P: MatrixPath, delta: float = 1e-8) -> FollowerTerms:
    """Form the follower terms from the follower Riccati path.

    P is the path `backward.solve_riccati_follower` returns, which has
    already checked R1 + D1'PD1 for strong positivity at every node.
    Raises RegularityError naming the node where the leader control
    weight Rbb is farthest from being strongly negative.
    """
    Ps = P.samples
    C, B1, D1 = spec.C.samples, spec.B1.samples, spec.D1.samples
    D2, sigma = spec.D2.samples, spec.sigma.samples
    R1, R2 = spec.R1.samples, spec.R2.samples

    Rt1inv = np.linalg.inv(R1 + D1.mT @ Ps @ D1)
    K = B1.mT @ Ps + D1.mT @ Ps @ C

    R = Rt1inv @ R1 @ Rt1inv
    DPD1 = D2.mT @ Ps @ D1
    Rbb = R2 + DPD1 @ R @ DPD1.mT
    lam = np.linalg.eigvalsh(0.5 * (Rbb + Rbb.mT)).max(axis=1)
    worst_node = int(np.argmax(lam))
    worst = lam[worst_node]
    if worst > -delta:
        raise RegularityError(
            f"leader control weight failed to be strongly negative at node "
            f"{worst_node} (max eig {worst:.3e} > {-delta:.1e})",
            node=worst_node,
        )
    Rbbinv = np.linalg.inv(Rbb)

    B1R = B1 @ Rt1inv
    D1R = D1 @ Rt1inv
    BD = B1R @ D1.mT
    DD = D1R @ D1.mT
    return FollowerTerms(
        P=Ps, Rt1inv=Rt1inv, K=K, BK=B1R @ K, DK=D1R @ K,
        BB=B1R @ B1.mT, BD=BD, DB=D1R @ B1.mT, DD=DD,
        aR=(2.0 / spec.alpha) * np.linalg.inv(spec.R0.samples),
        gR=(2.0 / spec.gamma) * np.linalg.inv(spec.R0hat.samples),
        B2eff=spec.B2.samples - BD @ Ps @ D2, D2eff=D2 - DD @ Ps @ D2,
        w=BD @ Ps @ sigma, sig=sigma - DD @ Ps @ sigma,
        R=R, DPD1=DPD1, Rbb=Rbb, Rbb_max_eig=lam, Rbbinv=Rbbinv, W2=Rbbinv @ R2 @ Rbbinv,
        cross=DPD1 @ R @ D1.mT @ Ps @ sigma,
    )


@dataclass(frozen=True)
class HatStage:
    """2n-forward / 2n-backward blocks of the follower optimality system."""

    n: int
    m2: int
    A1: MatrixPath
    A2: MatrixPath
    C: MatrixPath
    B1: MatrixPath
    B2: MatrixPath
    B3: MatrixPath
    D1: MatrixPath
    D2: MatrixPath
    D3: MatrixPath
    b: MatrixPath
    sigma: MatrixPath
    v: MatrixPath
    F: MatrixPath
    Q: MatrixPath
    G: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        two = 2 * self.n
        assert self.A1.shape == (two, two) and self.A2.shape == (two, two)
        assert self.B2.shape == (two, self.m2) and self.G.shape == (two, two)

    def problem(self) -> RiccatiProblem:
        """The stage's (2n) Riccati equation in unified form, `tabled`."""
        return tabled(RiccatiProblem(
            grid=self.A1.grid, A1=self.A1, A2=self.A2, B1=self.B1, Q=self.Q,
            terminal=self.G, C1=self.C, C2=self.C, B2=self.B3, D1=self.D1, D2=self.D3,
        ))


def build_hat(spec: GameSpec, ft: FollowerTerms) -> HatStage:
    """Hat-stage blocks from the follower terms."""
    n, m2, grid = spec.n, spec.m2, spec.grid
    zn = np.zeros((len(grid), n, n))
    zm = np.zeros((len(grid), n, m2))
    z1 = np.zeros((len(grid), n, 1))
    A, C, Q = spec.A.samples, spec.C.samples, spec.Q.samples
    D1, B2, D2 = spec.D1.samples, spec.B2.samples, spec.D2.samples
    P, sig = ft.P, spec.sigma.samples

    aRP = ft.aR @ P
    AK = A - ft.BK
    CK = C - ft.DK
    # the backward pair is the completed-squares shift of the raw adjoint,
    # so the sigma source carries the closed-loop diffusion map: CK' P sig
    v = CK.mT @ P @ sig
    Ftop = -ft.K.mT @ ft.Rt1inv @ D1.mT @ P @ D2 + P @ B2 + C.mT @ P @ D2

    G = spec.G
    z = np.zeros((n, n))
    # terminal of the shifted backward pair: ybar(T) = G qbar(T) (the raw
    # adjoint's -G x part is absorbed by the shift since P(T) = G)
    Ghat = np.block([[z, G], [-G, z]])
    xihat = np.vstack([spec.xi, np.zeros((n, 1))])
    mp = lambda s: MatrixPath(grid, s)
    return HatStage(
        n=n, m2=m2,
        A1=mp(np.block([[AK, zn], [-aRP, A]])),
        A2=mp(np.block([[AK, zn], [aRP, A]])),
        C=mp(np.block([[CK, zn], [zn, C]])),
        B1=mp(np.block([[ft.BB, -ft.aR], [ft.aR, -ft.aR]])),
        B2=mp(np.block([[ft.B2eff], [zm]])),
        B3=mp(np.block([[ft.BD, zn], [zn, zn]])),
        D1=mp(np.block([[ft.DB, zn], [zn, zn]])),
        D2=mp(np.block([[ft.D2eff], [zm]])),
        D3=mp(np.block([[ft.DD, zn], [zn, zn]])),
        b=mp(np.block([[-ft.w], [z1]])),
        sigma=mp(np.block([[ft.sig], [z1]])),
        v=mp(np.block([[v], [z1]])),
        F=mp(np.block([[Ftop], [zm]])),
        Q=mp(np.block([[zn, -Q], [Q, zn]])),
        G=Ghat, xi=xihat,
    )


@dataclass(frozen=True)
class CheckStage:
    """3n-forward / 2n-backward blocks with the physical state adjoined:
    each block is the physical-state row over the matching hat block (A
    over A1, F1 over b), which takes a zero first column in A, C, Q and G."""

    n: int
    m2: int
    A: MatrixPath
    C: MatrixPath
    B1: MatrixPath
    B2: MatrixPath
    B3: MatrixPath
    D1: MatrixPath
    D2: MatrixPath
    D3: MatrixPath
    F1: MatrixPath
    sigma: MatrixPath
    Q: MatrixPath
    G: np.ndarray
    Qbar: MatrixPath
    Gbar: np.ndarray
    Iinj: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        assert self.A.shape == (3 * self.n, 3 * self.n)
        assert self.B1.shape == (3 * self.n, 2 * self.n)
        assert self.Q.shape == (2 * self.n, 3 * self.n)
        assert self.Iinj.shape == (3 * self.n, self.n)


def build_check(spec: GameSpec, ft: FollowerTerms, hat: HatStage) -> CheckStage:
    """Check-stage blocks, each the physical-state row on a hat block."""
    n, m2, grid = spec.n, spec.m2, spec.grid
    zn = np.zeros((len(grid), n, n))
    zx = np.zeros((len(grid), 2 * n, n))
    wide = lambda path: np.concatenate([zx, path.samples], axis=-1)

    def on_hat(row, below):
        return MatrixPath(grid, np.concatenate([np.concatenate(row, axis=-1), below], axis=-2))

    Q, G = spec.Q.samples, spec.G
    z = np.zeros((n, n))
    return CheckStage(
        n=n, m2=m2,
        A=on_hat([spec.A.samples, -ft.BK, zn], wide(hat.A1)),
        C=on_hat([spec.C.samples, -ft.DK, zn], wide(hat.C)),
        B1=on_hat([ft.BB, zn], hat.B1.samples),
        B2=on_hat([ft.B2eff], hat.B2.samples),
        B3=on_hat([ft.BD, zn], hat.B3.samples),
        D1=on_hat([ft.DB, zn], hat.D1.samples),
        D2=on_hat([ft.D2eff], hat.D2.samples),
        D3=on_hat([ft.DD, zn], hat.D3.samples),
        F1=on_hat([spec.f1.samples - ft.w], hat.b.samples),
        sigma=on_hat([ft.sig], hat.sigma.samples),
        Q=MatrixPath(grid, wide(hat.Q)),
        G=np.hstack([np.zeros((2 * n, n)), hat.G]),
        Qbar=MatrixPath(grid, np.block([[Q, zn, zn], [zn, zn, zn], [zn, zn, zn]])),
        Gbar=np.block([[G, z, z], [z, z, z], [z, z, z]]),
        Iinj=np.vstack([np.eye(n), z, z]),
        xi=np.vstack([spec.xi, hat.xi]),
    )


@dataclass(frozen=True)
class BlackboardStage:
    """5n-forward / 5n-backward blocks of the leader-side worst-case system."""

    n: int
    m2: int
    A: MatrixPath
    C: MatrixPath
    B1: MatrixPath
    B2: MatrixPath
    B3: MatrixPath
    D1: MatrixPath
    D2: MatrixPath
    D3: MatrixPath
    F1: MatrixPath
    F2: MatrixPath
    Sigma: MatrixPath
    Upsilon: MatrixPath
    Q: MatrixPath
    G: np.ndarray
    Xi: np.ndarray

    def __post_init__(self):
        five = 5 * self.n
        assert self.A.shape == (five, five) and self.Q.shape == (five, five)
        assert self.B2.shape == (five, self.m2)

    def problem(self) -> RiccatiProblem:
        """The stage's (5n) Riccati equation in unified form, `tabled`."""
        return tabled(RiccatiProblem(
            grid=self.A.grid, A1=self.A, A2=self.A, B1=self.B1, Q=self.Q,
            terminal=self.G, C1=self.C, C2=self.C, B2=self.B3, D1=self.D1, D2=self.D3,
        ))


def build_blackboard(check: CheckStage, hat: HatStage, ft: FollowerTerms) -> BlackboardStage:
    """Stack the check-stage system with the adjoint pair of the leader's
    inner disturbance problem, worst case substituted."""
    n, m2 = check.n, check.m2
    gridobj = check.A.grid
    K1 = len(gridobj)
    z32 = np.zeros((K1, 3 * n, 2 * n))
    z23 = np.zeros((K1, 2 * n, 3 * n))
    z22 = np.zeros((K1, 2 * n, 2 * n))
    z33 = np.zeros((K1, 3 * n, 3 * n))
    z2m = np.zeros((K1, 2 * n, m2))
    z21 = np.zeros((K1, 2 * n, 1))

    Iinj = check.Iinj
    corner = Iinj @ ft.gR @ Iinj.T
    cB1 = check.B1.samples
    cB3 = check.B3.samples
    cD1 = check.D1.samples
    cD3 = check.D3.samples
    cQ = check.Q.samples

    Gbb = np.block([[-check.Gbar, -check.G.T], [check.G, np.zeros((2 * n, 2 * n))]])
    Xi = np.vstack([check.xi, np.zeros((2 * n, 1))])
    mp = lambda s: MatrixPath(gridobj, s)
    return BlackboardStage(
        n=n, m2=m2,
        A=mp(np.block([[check.A.samples, z32], [z23, hat.A2.samples]])),
        C=mp(np.block([[check.C.samples, z32], [z23, hat.C.samples]])),
        B1=mp(np.block([[corner, cB1], [-cB1.mT, z22]])),
        B2=mp(np.block([[check.B2.samples], [z2m]])),
        B3=mp(np.block([[z33, cB3], [-cD1.mT, z22]])),
        D1=mp(np.block([[z33, cD1], [-cB3.mT, z22]])),
        D2=mp(np.block([[check.D2.samples], [z2m]])),
        D3=mp(np.block([[z33, cD3], [-cD3.mT, z22]])),
        F1=mp(np.block([[check.F1.samples], [z21]])),
        F2=mp(np.block([[np.zeros((K1, 3 * n, m2))], [hat.F.samples]])),
        Sigma=mp(np.block([[check.sigma.samples], [z21]])),
        Upsilon=mp(np.block([[np.zeros((K1, 3 * n, 1))], [hat.v.samples]])),
        Q=mp(np.block([[check.Qbar.samples, -cQ.mT], [cQ, z22]])),
        G=Gbb, Xi=Xi,
    )


@dataclass(frozen=True)
class LeaderCostWeights:
    """Weights of the leader's reduced minimization problem on the 5n stage.

    R is the follower-substitution weight Rt1^{-1} R1 Rt1^{-1}; Rbb must be
    strongly negative for the leader's problem to be well posed.  cross is
    the constant control offset D2'P D1 R D1'P sigma.
    """

    n: int
    m1: int
    m2: int
    R: MatrixPath
    Rbb: MatrixPath
    Qbar: MatrixPath
    Bbar: MatrixPath
    Dbar: MatrixPath
    Gbar: np.ndarray
    S1: MatrixPath
    M1: MatrixPath
    L1: MatrixPath
    S2: MatrixPath
    M2: MatrixPath
    L2: MatrixPath
    S3: MatrixPath
    M3: MatrixPath
    L3: MatrixPath
    cross: MatrixPath
    sigma: MatrixPath


def build_cost_weights(spec: GameSpec, ft: FollowerTerms) -> LeaderCostWeights:
    """Reduced leader cost weights from the follower terms."""
    n, m1, m2, grid = spec.n, spec.m1, spec.m2, spec.grid
    K1 = len(grid)
    five = 5 * n
    B1, D1 = spec.B1.samples, spec.D1.samples
    P, K, R, DPD1 = ft.P, ft.K, ft.R, ft.DPD1

    Qbars = np.zeros((K1, five, five))
    Bbars = np.zeros((K1, five, five))
    Dbars = np.zeros((K1, five, five))
    S1s = np.zeros((K1, five, five))
    M1s = np.zeros((K1, five, five))
    L1s = np.zeros((K1, five, five))
    S2s = np.zeros((K1, m2, five))
    M2s = np.zeros((K1, m2, five))
    L2s = np.zeros((K1, m2, five))
    S3s = np.zeros((K1, n, five))
    M3s = np.zeros((K1, n, five))
    L3s = np.zeros((K1, n, five))

    b4 = slice(3 * n, 4 * n)  # fourth n-block (ybar / zbar rows)
    b2 = slice(n, 2 * n)      # second n-block (xbar columns)
    Qbars[:, :n, :n] = spec.Q.samples
    Qbars[:, b2, b2] = K.mT @ R @ K
    Bbars[:, :n, :n] = ft.gR
    Bbars[:, b4, b4] = B1 @ R @ B1.mT
    Dbars[:, b4, b4] = D1 @ R @ D1.mT
    S1s[:, b4, b2] = -B1 @ R @ K
    M1s[:, b4, b4] = D1 @ R @ B1.mT
    L1s[:, b4, b2] = -D1 @ R @ K
    S2s[:, :, b2] = DPD1 @ R @ K
    M2s[:, :, b4] = -DPD1 @ R @ B1.mT
    L2s[:, :, b4] = -DPD1 @ R @ D1.mT
    S3s[:, :, b2] = P @ D1 @ R @ K
    M3s[:, :, b4] = -P @ D1 @ R @ B1.mT
    L3s[:, :, b4] = -P @ D1 @ R @ D1.mT

    Gbar = np.zeros((five, five))
    Gbar[:n, :n] = spec.G
    mp = lambda s: MatrixPath(grid, s)
    return LeaderCostWeights(
        n=n, m1=m1, m2=m2, R=mp(R), Rbb=mp(ft.Rbb), Qbar=mp(Qbars), Bbar=mp(Bbars),
        Dbar=mp(Dbars), Gbar=Gbar, S1=mp(S1s), M1=mp(M1s), L1=mp(L1s), S2=mp(S2s),
        M2=mp(M2s), L2=mp(L2s), S3=mp(S3s), M3=mp(M3s), L3=mp(L3s),
        cross=mp(ft.cross), sigma=spec.sigma,
    )


@dataclass(frozen=True)
class DoubleHatStage:
    """10n-forward / 10n-backward blocks of the leader optimality system.

    The blocks that Phat multiplies from the left are column views of one
    coefficient table [A1 | F | B1 | C1 | Sigma | D1 | B2 | D2], and Q and
    Upsilon of one array [Q | Upsilon]: the drift, diffusion and adjoint
    offsets sit beside their blocks, so the offset march reads [A1 | F],
    [C1 | Sigma], [Q | Upsilon] and the table with no copy.  A2 and C2 are
    not stored: the properties form J A1 J and J C1 J afresh on each read,
    so they live only as long as their reader keeps them.
    """

    n: int
    A1: MatrixPath
    C1: MatrixPath
    B1: MatrixPath
    B2: MatrixPath
    D1: MatrixPath
    D2: MatrixPath
    Q: MatrixPath
    F: MatrixPath
    Sigma: MatrixPath
    Upsilon: MatrixPath
    Xi: np.ndarray
    G: np.ndarray

    def __post_init__(self):
        ten = 10 * self.n
        for name in ("A1", "C1", "B1", "B2", "D1", "D2", "Q"):
            assert getattr(self, name).shape == (ten, ten), name
        assert self.Xi.shape == (ten, 1) and self.G.shape == (ten, ten)

    @property
    def A2(self) -> MatrixPath:
        """J A1 J, formed on each read."""
        return MatrixPath(self.A1.grid, j_conjugate(self.A1.samples))

    @property
    def C2(self) -> MatrixPath:
        """J C1 J, formed on each read."""
        return MatrixPath(self.A1.grid, j_conjugate(self.C1.samples))

    def left(self, offset: bool = False) -> dict:
        """The `backward.LEFT` coefficients of `problem(offset)`, keyed in
        that order, with no J-copy formed; with offset, A1 and C1 are the
        column views [A1 | F] and [C1 | Sigma] of the table."""
        A1, C1 = self.A1, self.C1
        if offset:  # each block with its offset column, as build_doublehat lays them out
            ten, grid, table = 10 * self.n, self.A1.grid, self.A1.samples.base
            A1, C1 = (MatrixPath(grid, table[..., a:a + ten + 1]) for a in (0, 2 * ten + 1))
        return dict(zip(LEFT, (A1, self.B1, C1, self.D1, self.B2, self.D2)))

    def problem(self, offset: bool = False) -> RiccatiProblem:
        """The stage's (10n) Riccati equation in unified form, with the
        two-sided C1/C2 split and A2 and C2 formed once for it; with offset,
        the rectangular form whose path is [Phat | phihat]: A1, C1 and Q
        carry F, Sigma and Upsilon as trailing columns (`left`), and the
        terminal is [G | 0]."""
        Q, G = self.Q, self.G
        if offset:
            Q, G = MatrixPath(Q.grid, Q.samples.base), np.hstack([G, np.zeros((10 * self.n, 1))])
        return RiccatiProblem(grid=self.A1.grid, A2=self.A2, Q=Q, terminal=G, C2=self.C2,
                              **self.left(offset))


def _fill(out: np.ndarray, rows) -> None:
    """out[...] = np.block(rows), two equal rows of (N+1, r, c) stacks, in place."""
    for half, row in zip(np.split(out, 2, axis=1), rows):
        np.concatenate(row, axis=-1, out=half)


def j_conjugate(x: np.ndarray) -> np.ndarray:
    """J x J, J = diag(I, -I): x with its off-diagonal blocks negated as
    0.0 - x, which keeps the sign of every zero of x."""
    out, h = x.copy(), x.shape[-1] // 2
    out[..., :h, h:], out[..., h:, :h] = 0.0 - x[..., :h, h:], 0.0 - x[..., h:, :h]
    return out


def build_doublehat(bb: BlackboardStage, w: LeaderCostWeights,
                    Rbbinv: np.ndarray) -> DoubleHatStage:
    """Hamiltonian-stage blocks with the leader's control eliminated;
    Rbbinv holds the inverse of w.Rbb at every node.  The blocks are written
    in place into the table and [Q | Upsilon] that the fields slice."""
    n = bb.n
    grid = bb.A.grid
    A, C, Qbb, F2 = bb.A.samples, bb.C.samples, bb.Q.samples, bb.F2.samples
    Bb1, Bb2, Bb3 = bb.B1.samples, bb.B2.samples, bb.B3.samples
    Db1, Db2, Db3 = bb.D1.samples, bb.D2.samples, bb.D3.samples
    S1, S2 = w.S1.samples, w.S2.samples
    M1, M2 = w.M1.samples, w.M2.samples
    L1, L2 = w.L1.samples, w.L2.samples
    cross, sig = w.cross.samples, w.sigma.samples

    B2R, D2R, F2R = Bb2 @ Rbbinv, Db2 @ Rbbinv, F2 @ Rbbinv
    M2R, L2R, S2R = M2.mT @ Rbbinv, L2.mT @ Rbbinv, S2.mT @ Rbbinv
    F2T, Bb2T, Db2T = F2.mT, Bb2.mT, Db2.mT

    z5 = np.zeros((5 * n, 5 * n))
    Gdh = np.block([[-w.Gbar, -bb.G.T], [bb.G, z5]])
    Xi = np.vstack([bb.Xi, np.zeros((5 * n, 1))])
    mp = lambda s: MatrixPath(grid, s)
    ten = 10 * n
    table = np.empty((len(grid), ten, 6 * ten + 2))
    QU = np.empty((len(grid), ten, ten + 1))
    A1F, B1, C1S, D1, B2, D2 = np.split(table, np.cumsum([ten + 1, ten, ten + 1, ten, ten]), -1)
    _fill(A1F, ([A - B2R @ S2, B2R @ F2T, bb.F1.samples - B2R @ cross],
                [S1 - M2R @ S2, A + M2R @ F2T, w.M3.samples.mT @ sig - M2R @ cross]))
    _fill(C1S, ([C - D2R @ S2, D2R @ F2T, bb.Sigma.samples - D2R @ cross],
                [L1 - L2R @ S2, C + L2R @ F2T, w.L3.samples.mT @ sig - L2R @ cross]))
    _fill(QU, ([w.Qbar.samples - S2R @ S2, -Qbb.mT + S2R @ F2T,
                w.S3.samples.mT @ sig - S2R @ cross],
               [Qbb - F2R @ S2, F2R @ F2T, bb.Upsilon.samples - F2R @ cross]))
    _fill(B1, ([B2R @ Bb2T, Bb1 - B2R @ M2], [-Bb1.mT + M2R @ Bb2T, w.Bbar.samples - M2R @ M2]))
    _fill(B2, ([B2R @ Db2T, Bb3 - B2R @ L2], [-Db1.mT + M2R @ Db2T, M1.mT - M2R @ L2]))
    _fill(D1, ([D2R @ Bb2T, Db1 - D2R @ M2], [-Bb3.mT + L2R @ Bb2T, M1 - L2R @ M2]))
    _fill(D2, ([D2R @ Db2T, Db3 - D2R @ L2], [-Db3.mT + L2R @ Db2T, w.Dbar.samples - L2R @ L2]))
    return DoubleHatStage(
        n=n, A1=mp(A1F[..., :ten]), F=mp(A1F[..., ten:]), C1=mp(C1S[..., :ten]),
        Sigma=mp(C1S[..., ten:]), Q=mp(QU[..., :ten]), Upsilon=mp(QU[..., ten:]),
        B1=mp(B1), B2=mp(B2), D1=mp(D1), D2=mp(D2), Xi=Xi, G=Gdh,
    )


@dataclass(frozen=True)
class GainMaps:
    """Affine feedback maps of both controls on the 10n forward state."""

    PM1: MatrixPath
    PM2: MatrixPath
    phiM1: MatrixPath
    phiM2: MatrixPath


def decoupling(P: np.ndarray, A1: np.ndarray, B1: np.ndarray, C1: np.ndarray,
               D1: np.ndarray, B2: np.ndarray, D2: np.ndarray):
    """Martingale integrand and closed loop of a decoupled stage, Y = P X +
    phi with P solving a stage problem and phi its offset, all given as
    stacks at the same times (the `backward.LEFT` coefficients of the
    problem, in that order).  P is [P | phi], and A1 and C1 carry the
    offset's forward drift and diffusion as trailing columns, [A1 | drift]
    and [C1 | diff], so that one formula gives the state and offset columns:

        [E | e] = (I - P D2)^{-1} P ([C1 | diff] + D1 [P | phi]),
        [A | b] = [A1 | drift] + B1 [P | phi] + B2 [E | e],
        [C | d] = [C1 | diff] + D1 [P | phi] + D2 [E | e],

    where Z = E X + e and dX = (A X + b) dt + (C X + d) dW.  The products
    and the solve take the leading square block of P.  Returns the arrays
    [E | e], [A | b] and [C | d].
    """
    S = P[..., :P.shape[-2]]
    # the sums are formed in place, term by term in the formulas' order:
    # these stacks set the peak memory of a solve
    gap = S @ D2
    np.subtract(np.eye(S.shape[-1]), gap, out=gap)
    inner = S @ C1
    inner += S @ D1 @ P
    try:
        Ee = np.linalg.solve(gap, inner)
    except np.linalg.LinAlgError as exc:
        k = int(np.argmax(np.linalg.slogdet(gap)[0] == 0.0))
        raise RegularityError(
            f"decoupling matrix (I - P D2) is singular at node {k}", node=k
        ) from exc
    del gap, inner
    Ab, Cd = B1 @ P, D1 @ P
    Ab += A1
    Ab += B2 @ Ee
    Cd += C1
    Cd += D2 @ Ee
    return Ee, Ab, Cd


def build_gain_maps(spec: GameSpec, ft: FollowerTerms, Phat: MatrixPath,
                    phihat: MatrixPath, E: np.ndarray, e: np.ndarray) -> GainMaps:
    """Assemble the control feedback maps from the solved decoupling, whose
    integrand gains (E, e) come from `decoupling`.

    The leader map is built first; the follower map references it through
    the direct-control coupling D1'P D2.  Rows are picked by `block_row`
    slot (slots 0 + 1, slot 1 and slot 8), following the component layout
    documented in the module docstring: the follower's backward pair sits
    at slots 8 and 9, so its feedback reads slot 8.
    """
    B1T, D1T = spec.B1.samples.mT, spec.D1.samples.mT
    B2T, D2T = spec.B2.samples.mT, spec.D2.samples.mT
    C, D2, sig = spec.C.samples, spec.D2.samples, spec.sigma.samples
    P, K, Ph, ph = ft.P, ft.K, Phat.samples, phihat.samples
    slot1, slot8 = block_row(1, spec.n), block_row(8, spec.n)
    slots01 = block_row(0, spec.n) + slot1

    DR1 = ft.DPD1 @ ft.Rt1inv
    DR = ft.DPD1 @ ft.R
    T1 = B2T - DR1 @ B1T          # m2 x n
    T2 = B2T @ P + D2T @ P @ C - DR1 @ K
    T3 = DR @ K
    T4 = DR @ B1T
    T5 = D2T @ slots01 - DR1 @ D1T @ slots01 + DR @ D1T @ slot8

    PM2 = T1 @ slots01 @ Ph + T2 @ slot8 - T3 @ slot1 + T4 @ slot8 @ Ph + T5 @ E
    phiM2 = T1 @ slots01 @ ph + T4 @ slot8 @ ph - ft.cross + T5 @ e
    coupling = D1T @ P @ D2 @ ft.Rbbinv
    PM1 = B1T @ slot8 @ Ph + D1T @ slot8 @ E - K @ slot1 - coupling @ PM2
    phiM1 = B1T @ slot8 @ ph + D1T @ slot8 @ e - D1T @ P @ sig - coupling @ phiM2

    mp = lambda s: MatrixPath(spec.grid, s)
    return GainMaps(PM1=mp(PM1), PM2=mp(PM2), phiM1=mp(phiM1), phiM2=mp(phiM2))
