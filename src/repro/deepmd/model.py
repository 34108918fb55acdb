"""The Deep Potential Smooth Edition model.

Architecture (Zhang et al. 2018, as deployed by DeePMD-kit):

1. For each atom, the smooth descriptor builds the environment matrix
   ``R~`` from neighbors within ``rcut`` (see
   :mod:`repro.deepmd.descriptor`).  It depends on no trainable
   parameter, so the model reads it — and its derivative with respect
   to the displacements — from the batch's cached
   :class:`~repro.deepmd.data.BatchGeometry` instead of taping it.
2. An **embedding network** maps each neighbor's switching value
   ``s(r)`` (here concatenated with the neighbor's species one-hot — a
   single shared network instead of DeePMD's per-species-pair network
   table, a documented scale-down that preserves the role of the
   embedding activation function) to an ``m1``-dimensional feature.
3. The symmetry-preserving descriptor is
   ``D_i = (G^T R~)(R~^T G<) / width^2`` with ``G<`` the first ``m2``
   embedding columns.
4. A **fitting network** maps ``D_i`` (plus the central atom's species
   one-hot) to a per-atom energy; the total energy is their sum plus a
   constant per-atom bias fitted from the training data.
5. **Forces are the exact negative gradient** of the total energy with
   respect to atomic positions: the autodiff tape differentiates the
   energy with respect to ``R~`` (``create_graph=True`` keeps the
   result differentiable for the force-matching loss) and one linear
   tape node, :func:`displacement_gradient`, applies ``dR~/dd``.

The paper fixes the network shapes (embedding {25, 50, 100}, fitting
{240, 240, 240}) and searches the *activation functions*; this class
takes both as configuration so tests can shrink the widths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor, grad, make_op
from repro.deepmd.data import BatchGeometry, DescriptorBatch
from repro.deepmd.descriptor import DescriptorConfig
from repro.exceptions import ConfigurationError
from repro.nn.activations import ACTIVATION_NAMES, get_activation
from repro.nn.network import MLP
from repro.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters of the DeepPot-SE model.

    ``embedding_widths`` / ``fitting_widths`` default to a scaled-down
    version of the paper's fixed {25,50,100} / {240,240,240}; the
    activation names are the searched genes.
    """

    descriptor: DescriptorConfig = field(default_factory=DescriptorConfig)
    n_species: int = 3
    embedding_widths: tuple[int, ...] = (8, 16)
    axis_neurons: int = 4  # m2: columns of G used for the second factor
    fitting_widths: tuple[int, ...] = (24, 24)
    desc_activation: str = "tanh"
    fitting_activation: str = "tanh"
    descriptor_scale: float = 100.0
    #: fixed divisor for the G^T R environment products (DeePMD's
    #: ``sel`` plays the same role there).  It must NOT depend on the
    #: padded neighbor width, or a model trained with one neighbor
    #: table would predict differently when deployed with another.
    descriptor_norm: float = 32.0

    def __post_init__(self) -> None:
        for name in (self.desc_activation, self.fitting_activation):
            if name not in ACTIVATION_NAMES:
                raise ConfigurationError(
                    f"unknown activation {name!r}; expected one of "
                    f"{ACTIVATION_NAMES}"
                )
        if self.axis_neurons > self.embedding_widths[-1]:
            raise ConfigurationError(
                "axis_neurons cannot exceed the embedding output width"
            )
        if self.n_species < 1:
            raise ConfigurationError("n_species must be >= 1")


def displacement_gradient(g_env: Tensor, geometry: BatchGeometry) -> Tensor:
    """``dE/dd`` ``(..., 3)`` from ``dE/dR~`` ``(..., 4)``: the chain
    rule through the environment matrix as one tape node.

    The map is linear in ``g_env`` with constant coefficients, so its
    vjp is its transpose (:func:`_environment_gradient`), whose vjp is
    this map again: no derivative of the switching function beyond the
    first is ever formed, at any order of differentiation.
    """
    geo, d = geometry, geometry.displacements
    g0, gv = g_env.data[..., 0], g_env.data[..., 1:]
    along = np.einsum("...c,...c->...", gv, d)
    radial = geo.ds_coeff * g0 + geo.dw_coeff * along
    data = radial[..., None] * d + geo.weight[..., None] * gv
    return make_op(
        data,
        (g_env,),
        (lambda h: _environment_gradient(h, geo),),
        "displacement_gradient",
    )


def _environment_gradient(g_disp: Tensor, geometry: BatchGeometry) -> Tensor:
    """The transpose of :func:`displacement_gradient`: ``(..., 3)`` to
    ``(..., 4)``."""
    geo, d = geometry, geometry.displacements
    along = np.einsum("...c,...c->...", g_disp.data, d)
    data = np.empty(g_disp.shape[:-1] + (4,))
    data[..., 0] = geo.ds_coeff * along
    data[..., 1:] = (
        geo.weight[..., None] * g_disp.data
        + (geo.dw_coeff * along)[..., None] * d
    )
    return make_op(
        data,
        (g_disp,),
        (lambda h: displacement_gradient(h, geo),),
        "environment_gradient",
    )


class DeepPotModel:
    """Trainable deep potential: energy and gradient-consistent forces."""

    def __init__(
        self,
        config: ModelConfig,
        energy_bias_per_atom: float = 0.0,
        rng: RngLike = None,
    ) -> None:
        gen = ensure_rng(rng)
        self.config = config
        desc_act = get_activation(config.desc_activation)
        fit_act = get_activation(config.fitting_activation)
        m1 = config.embedding_widths[-1]
        self.m1 = m1
        self.m2 = config.axis_neurons
        emb_sizes = [1 + config.n_species, *config.embedding_widths]
        self.embedding = MLP(
            emb_sizes,
            activation=desc_act,
            final_activation=desc_act,
            rng=gen,
        )
        fit_sizes = [m1 * self.m2 + config.n_species, *config.fitting_widths, 1]
        self.fitting = MLP(
            fit_sizes, activation=fit_act, final_activation=None, rng=gen
        )
        self.energy_bias_per_atom = float(energy_bias_per_atom)

    @property
    def parameters(self) -> list[Tensor]:
        return self.embedding.parameters + self.fitting.parameters

    def n_parameters(self) -> int:
        return self.embedding.n_parameters() + self.fitting.n_parameters()

    # ------------------------------------------------------------------
    def _geometry(self, batch: DescriptorBatch) -> BatchGeometry:
        radii = self.config.descriptor
        return batch.geometry(radii.rcut, radii.rcut_smth)

    def atomic_energies(self, env: Tensor, batch: DescriptorBatch) -> Tensor:
        """Per-atom energies ``(B, N)`` from the environment matrix
        ``(B, N, nn, 4)``, whose first column feeds the embedding.

        ``env`` must be zero in padded neighbor slots (both the cached
        geometry and the taped reference are): ``G`` is not masked, so
        its padded rows reach ``G^T R~`` only multiplied by those zeros.
        """
        B, N, nn = batch.mask.shape
        neighbor_onehot, central_onehot = batch.species_onehots(
            self.config.n_species
        )
        emb_in = F.concatenate(
            [env[..., :1], Tensor(neighbor_onehot)], axis=-1
        )
        emb_flat = F.reshape(emb_in, (B * N * nn, 1 + self.config.n_species))
        G = self.embedding(emb_flat)
        G = F.reshape(G, (B, N, nn, self.m1))
        GR = F.div(
            F.matmul_tn(G, env), self.config.descriptor_norm
        )  # (B, N, m1, 4)
        GR_sub = GR[:, :, : self.m2, :]  # (B, N, m2, 4)
        D = F.matmul_nt(GR, GR_sub)  # (B, N, m1, m2)
        D_flat = F.mul(
            F.reshape(D, (B, N, self.m1 * self.m2)),
            self.config.descriptor_scale,
        )
        fit_in = F.concatenate([D_flat, Tensor(central_onehot)], axis=-1)
        fit_flat = F.reshape(
            fit_in, (B * N, self.m1 * self.m2 + self.config.n_species)
        )
        e_atom = self.fitting(fit_flat)
        e_atom = F.reshape(e_atom, (B, N))
        return F.add(e_atom, self.energy_bias_per_atom)

    def energy(self, batch: DescriptorBatch) -> Tensor:
        """Total energies ``(B,)`` (no force graph)."""
        env = Tensor(self._geometry(batch).env)
        return F.sum(self.atomic_energies(env, batch), axis=1)

    def energy_and_forces(
        self, batch: DescriptorBatch, create_graph: bool = False
    ) -> tuple[Tensor, Tensor]:
        """Total energies ``(B,)`` and forces ``(B, N, 3)``.

        Forces are computed as ``F_i = -dE/dr_i`` from the gradient of
        the scalar total energy with respect to the displacements:
        with ``d_ik = r_{j(k)} - r_i`` the chain rule gives

        ``F_i = sum_k g[i, k] - sum_{(a, k): j(a,k) = i} g[a, k]``

        where ``g = dE/dd = (dR~/dd)^T dE/dR~``.  Every step is a taped
        operation so, under ``create_graph=True``, the force error can
        be backpropagated into the network parameters.
        """
        B, N, nn = batch.mask.shape
        geometry = self._geometry(batch)
        env = Tensor(geometry.env, requires_grad=True)
        e_atom = self.atomic_energies(env, batch)
        e_total = F.sum(e_atom, axis=1)  # (B,)
        # a single scalar seed suffices: frames are independent
        e_sum = F.sum(e_total)
        (g_env,) = grad(e_sum, [env], create_graph=create_graph)
        # only the parameters are leaves of what is built from here on
        env.requires_grad = False
        g = displacement_gradient(g_env, geometry)
        # term 1: sum over neighbor slots (gradient w.r.t. central atom)
        central_term = F.sum(g, axis=2)  # (B, N, 3)
        # term 2: scatter-add onto neighbor atoms
        flat_vals = F.reshape(g, (B * N * nn, 3))
        frame_offsets = (np.arange(B) * N)[:, None, None]
        flat_idx = (batch.neighbor_indices + frame_offsets).reshape(-1)
        scattered = F.index_add(
            Tensor(np.zeros((B * N, 3))), flat_idx, flat_vals
        )
        neighbor_term = F.reshape(scattered, (B, N, 3))
        forces = F.sub(central_term, neighbor_term)
        return e_total, forces

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat parameter snapshot (copies)."""
        out: dict[str, np.ndarray] = {}
        for i, p in enumerate(self.parameters):
            out[f"param_{i}"] = p.data.copy()
        out["energy_bias_per_atom"] = np.array(self.energy_bias_per_atom)
        return out

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        params = self.parameters
        for i, p in enumerate(params):
            src = np.asarray(state[f"param_{i}"])
            if src.shape != p.data.shape:
                raise ConfigurationError(
                    f"parameter {i} shape mismatch: {src.shape} vs "
                    f"{p.data.shape}"
                )
            p.data = src.copy()
        if "energy_bias_per_atom" in state:
            self.energy_bias_per_atom = float(state["energy_bias_per_atom"])
