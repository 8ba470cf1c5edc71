"""The SCCF integrating component (Section III-D of the paper).

The integrating component fuses the global (UI) and local (user-based)
candidate lists.  For every item in the union of the two candidate sets it
builds the feature vector of eq. (16),

    input_ui = [ m_u ⊕ q_i ⊕ r̃^UI_ui ⊕ r̃^UU_ui ],

where the two preference scores are normalized per user (mean / standard
deviation over that user's candidate set), and feeds it through a stack of
fully-connected layers producing the fused score ``r̂^fi_ui`` (eq. 15).  The
network is trained with the objective of eq. (17): for each user the item she
actually clicked next (the validation item, per Section IV-A4) is the positive
instance, every other candidate is a negative, and users whose next item does
not appear in either candidate list are skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .. import nn
from ..nn import functional as F

__all__ = ["CandidateFeatures", "IntegratingMLP", "normalize_score_rows", "normalize_scores"]

_EPS = 1e-8


def normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Per-user standardization r̃ = (r − mean(r)) / std(r) from eq. (16).

    A constant score vector (zero standard deviation) normalizes to zeros,
    which happens for users whose neighbors contributed no votes.
    """

    scores = np.asarray(scores, dtype=np.float64)
    return normalize_score_rows(scores[None, :], np.ones((1, len(scores)), dtype=bool))[0]


def normalize_score_rows(scores: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """:func:`normalize_scores` per row of a padded ``(B, C)`` matrix.

    Mean and standard deviation are taken over each row's ``valid`` entries
    only; invalid entries come out as zeros.
    """

    counts = np.maximum(valid.sum(axis=1, keepdims=True), 1)
    mean = np.where(valid, scores, 0.0).sum(axis=1, keepdims=True) / counts
    centered = np.where(valid, scores - mean, 0.0)
    std = np.sqrt((centered * centered).sum(axis=1, keepdims=True) / counts)
    constant = std < _EPS
    return np.where(constant, 0.0, centered / np.where(constant, 1.0, std))


@dataclass
class CandidateFeatures:
    """Features of the candidate sets of one user or a window of users.

    Candidates are stored flat, window row by window row: candidate ``j`` is
    item ``candidate_items[j]`` of the user in window row ``rows[j]`` (all
    zeros for a single user), described by feature row ``features[j]``.
    """

    user_ids: np.ndarray              # (B,)
    rows: np.ndarray                  # (C,) window row of each candidate
    candidate_items: np.ndarray       # (C,)
    features: np.ndarray              # (C, 2d + 2)
    ui_scores: np.ndarray             # raw r^UI over the candidates
    uu_scores: np.ndarray             # raw r^UU over the candidates

    def split(self) -> List[Optional["CandidateFeatures"]]:
        """One single-user view per window row (``None`` for rows without candidates)."""

        counts = np.bincount(self.rows, minlength=len(self.user_ids)).tolist()
        ends = np.cumsum(counts).tolist()
        parts: List[Optional[CandidateFeatures]] = []
        for row, (count, end) in enumerate(zip(counts, ends)):
            if not count:
                parts.append(None)
                continue
            part = slice(end - count, end)
            parts.append(
                CandidateFeatures(
                    user_ids=self.user_ids[row:row + 1],
                    rows=np.zeros(count, dtype=np.int64),
                    candidate_items=self.candidate_items[part],
                    features=self.features[part],
                    ui_scores=self.ui_scores[part],
                    uu_scores=self.uu_scores[part],
                )
            )
        return parts


class IntegratingMLP:
    """Multi-layer fully connected fusion network over the four features of eq. (16).

    The fused score is ``r̂^fi = MLP([m_u ⊕ q_i ⊕ r̃^UI ⊕ r̃^UU]) + w_ui·r̃^UI + w_uu·r̃^UU``.
    The linear skip path on the two normalized preference scores (with the
    MLP's last layer zero-initialized) means the network *starts* as the
    sensible interpolation of the two components and gradient descent can
    only move away from it if that improves the validation ranking — a
    safeguard the paper does not need at Taobao scale (hundreds of millions
    of training users) but that keeps the merger from underperforming its own
    inputs when trained on a few hundred users.  Set ``score_skip=False`` to
    recover the paper's plain MLP head (the merger ablation bench compares
    both).
    """

    def __init__(
        self,
        embedding_dim: int,
        hidden_dims: Sequence[int] = (64, 32),
        dropout: float = 0.0,
        learning_rate: float = 0.003,
        weight_decay: float = 1e-6,
        num_epochs: int = 80,
        batch_size: int = 256,
        negatives_per_positive: int = 50,
        validation_fraction: float = 0.2,
        patience: int = 15,
        score_skip: bool = True,
        seed: int = 0,
    ) -> None:
        if embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if negatives_per_positive <= 0:
            raise ValueError("negatives_per_positive must be positive")
        if not 0.0 <= validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        self.embedding_dim = embedding_dim
        self.input_dim = 2 * embedding_dim + 2
        self.hidden_dims = tuple(hidden_dims)
        self.dropout = dropout
        self.learning_rate = learning_rate
        self.weight_decay = weight_decay
        self.num_epochs = num_epochs
        self.batch_size = batch_size
        self.negatives_per_positive = negatives_per_positive
        self.validation_fraction = validation_fraction
        self.patience = patience
        self.score_skip = score_skip
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self.network = nn.MLP(
            input_dim=self.input_dim,
            hidden_dims=self.hidden_dims,
            output_dim=1,
            dropout=dropout,
            rng=self._rng,
        )
        #: learnable weights of the skip path over [r̃^UI, r̃^UU]
        self.skip_weights = nn.Parameter(np.array([1.0, 0.5]), name="skip_weights")
        if score_skip:
            # Zero the final projection so the initial fused score is exactly
            # the skip interpolation; the MLP learns residual corrections.
            final_layer = list(self.network.network)[-1]
            final_layer.weight.data[:] = 0.0
        # Frozen weight snapshot for the pure-NumPy serving forward; rebuilt
        # after every fit and lazily on first predict (see :meth:`freeze`).
        self._frozen: Optional[
            Tuple[List[Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]], Optional[np.ndarray]]
        ] = None
        #: monotonic weight-change counter, bumped by :meth:`fit` and
        #: :meth:`freeze`; serving caches fold it into their tokens so a
        #: merger re-trained behind a fitted SCCF's back invalidates every
        #: fused score/recommendation entry.
        self.generation = 0
        # Remembers that freeze() met a module it cannot mirror, so predict()
        # settles on the tensor path instead of retrying (and bumping the
        # generation) on every call.
        self._freeze_failed = False
        self.loss_history: List[float] = []
        self.validation_history: List[float] = []

    def _trainable_parameters(self) -> List[nn.Parameter]:
        parameters = list(self.network.parameters())
        if self.score_skip:
            parameters.append(self.skip_weights)
        return parameters

    def _forward_tensor(self, features: nn.Tensor) -> nn.Tensor:
        """Fused logits for a feature matrix (differentiable path)."""

        logits = self.network(features).reshape(-1)
        if self.score_skip:
            score_block = features[:, self.input_dim - 2:]
            logits = logits + (score_block * self.skip_weights).sum(axis=1)
        return logits

    # ------------------------------------------------------------------ #
    # feature construction (eq. 16)
    # ------------------------------------------------------------------ #
    def build_features(
        self,
        user_id: Union[int, Sequence[int]],
        user_embedding: np.ndarray,
        item_embeddings: np.ndarray,
        candidate_items: np.ndarray,
        ui_scores: np.ndarray,
        uu_scores: np.ndarray,
        valid: Optional[np.ndarray] = None,
    ) -> CandidateFeatures:
        """Assemble ``[m_u ⊕ q_i ⊕ r̃^UI ⊕ r̃^UU]`` for one user or a whole window.

        One user: an int ``user_id``, a ``(d,)`` embedding, a non-empty
        ``(C,)`` candidate list and ``(num_items,)`` score rows.  A window: B
        ids, ``(B, d)`` embeddings, a padded ``(B, C)`` candidate matrix whose
        ``valid`` mask (default: all valid) marks the real candidates, and
        ``(B, num_items)`` score matrices.  The preference scores are
        standardized per row over its valid candidates (eq. 16).
        """

        candidate_items = np.asarray(candidate_items, dtype=np.int64)
        if candidate_items.ndim == 1:
            if not len(candidate_items):
                raise ValueError("candidate_items must be a non-empty 1-d array")
            user_id = [user_id]
            user_embedding = np.asarray(user_embedding)[None, :]
            candidate_items = candidate_items[None, :]
            ui_scores = np.asarray(ui_scores)[None, :]
            uu_scores = np.asarray(uu_scores)[None, :]
        elif candidate_items.ndim != 2:
            raise ValueError("candidate_items must be 1-d (one user) or 2-d (a window)")
        if valid is None:
            valid = np.ones(candidate_items.shape, dtype=bool)
        window_rows = np.arange(len(candidate_items))[:, None]
        safe_items = np.where(valid, candidate_items, 0)
        ui_candidate = np.asarray(ui_scores, dtype=np.float64)[window_rows, safe_items]
        uu_candidate = np.asarray(uu_scores, dtype=np.float64)[window_rows, safe_items]
        ui_norm = normalize_score_rows(ui_candidate, valid)
        uu_norm = normalize_score_rows(uu_candidate, valid)

        rows, columns = np.nonzero(valid)
        items = candidate_items[rows, columns]
        user_block = np.asarray(user_embedding, dtype=np.float64)[rows]
        item_block = np.asarray(item_embeddings, dtype=np.float64)[items]
        features = np.empty((len(rows), user_block.shape[1] + item_block.shape[1] + 2))
        features[:, :user_block.shape[1]] = user_block
        features[:, user_block.shape[1]:-2] = item_block
        features[:, -2] = ui_norm[rows, columns]
        features[:, -1] = uu_norm[rows, columns]
        return CandidateFeatures(
            user_ids=np.asarray(user_id, dtype=np.int64),
            rows=rows,
            candidate_items=items,
            features=features,
            ui_scores=ui_candidate[rows, columns],
            uu_scores=uu_candidate[rows, columns],
        )

    # ------------------------------------------------------------------ #
    # training (eq. 17)
    # ------------------------------------------------------------------ #
    def fit(self, examples: Sequence[Tuple[CandidateFeatures, int]]) -> "IntegratingMLP":
        """Train on ``(features, target_item)`` pairs.

        Pairs whose target item is absent from the candidate set are skipped,
        matching the paper: "If i⁺_u ∉ C^u_I, we will not calculate its two
        preference scores. Therefore, we do not use this instance to train our
        integrating model."

        Implementation note: the paper trains the integrating network with a
        pointwise sigmoid cross-entropy over all candidates (eq. 17).  With
        millions of Taobao users that objective has plenty of signal; at the
        scaled-down size of this reproduction it is dominated by the many
        easy negatives and converges too slowly to beat the UI ordering.  We
        therefore use the *listwise* sampled-softmax form of the same
        discrimination task: each user contributes one softmax over
        ``[positive, sampled negatives]`` rows from her candidate set.  The
        features, the network and the positive/negative definitions are
        unchanged; only the loss aggregation differs (documented in
        EXPERIMENTS.md).  The full candidate sets of the held-out validation
        users drive early stopping, mirroring the paper's "randomly split ten
        percent of the whole users as the validation set to tune the
        integrating model".
        """

        self.generation += 1
        usable: List[Tuple[np.ndarray, int]] = []
        for features, target in examples:
            position = np.where(features.candidate_items == target)[0]
            if len(position) == 0:
                continue
            usable.append((features.features, int(position[0])))
        if not usable:
            # Nothing to learn from (e.g. extremely small candidate lists);
            # the untrained network then behaves as a random-ish but harmless
            # re-ranker and SCCF falls back towards its UI ordering.
            return self

        self._rng.shuffle(usable)
        num_validation = int(len(usable) * self.validation_fraction)
        validation = usable[:num_validation]
        training = usable[num_validation:] or usable

        optimizer = nn.Adam(
            self._trainable_parameters(),
            lr=self.learning_rate,
            weight_decay=self.weight_decay,
        )
        # Calibrate the skip interpolation before gradient training: the
        # relative usefulness of the user-based component varies by dataset
        # and base model (strong for FISM, weaker for SASRec in the paper's
        # Table II), so the initial weight on r̃^UU is chosen by the same
        # validation criterion used for early stopping.  The selected state is
        # the state to beat — gradient steps are only kept if they improve it.
        if self.score_skip and validation:
            candidate_weights = [np.array([1.0, w]) for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
            scores = []
            for weights in candidate_weights:
                self.skip_weights.data = weights.copy()
                scores.append(self._validation_loss(validation))
            self.skip_weights.data = candidate_weights[int(np.argmin(scores))].copy()
        best_validation = self._validation_loss(validation)
        self.validation_history.append(best_validation)
        best_state = (self.network.state_dict(), self.skip_weights.data.copy())
        epochs_without_improvement = 0
        users_per_step = max(1, self.batch_size // (self.negatives_per_positive + 1))

        for _ in range(self.num_epochs):
            self.network.train()
            self._rng.shuffle(training)
            epoch_loss = 0.0
            batches = 0
            for start in range(0, len(training), users_per_step):
                chunk = training[start:start + users_per_step]
                feature_matrix = self._sample_listwise_rows(chunk)
                list_size = self.negatives_per_positive + 1
                logits = self._forward_tensor(nn.Tensor(feature_matrix)).reshape(len(chunk), list_size)
                log_probabilities = F.log_softmax(logits, axis=-1)
                # Column 0 of every block is the positive row.
                loss = -(log_probabilities[:, 0:1]).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
            self.loss_history.append(epoch_loss / max(batches, 1))

            validation_loss = self._validation_loss(validation)
            self.validation_history.append(validation_loss)
            if validation_loss < best_validation - 1e-6:
                best_validation = validation_loss
                best_state = (self.network.state_dict(), self.skip_weights.data.copy())
                epochs_without_improvement = 0
            else:
                epochs_without_improvement += 1
                if epochs_without_improvement >= self.patience:
                    break  # early stopping, as in the paper
        if best_state is not None:
            self.network.load_state_dict(best_state[0])
            self.skip_weights.data = best_state[1]
        self.network.eval()
        self.freeze()
        return self

    def _sample_listwise_rows(self, chunk: List[Tuple[np.ndarray, int]]) -> np.ndarray:
        """Stack fixed-size ``[positive, negatives...]`` blocks for each user.

        Every block has exactly ``negatives_per_positive + 1`` rows (negatives
        are re-sampled with replacement when a candidate set is small), so the
        batch reshapes cleanly into per-user softmax groups.
        """

        blocks: List[np.ndarray] = []
        for feature_matrix, positive_row in chunk:
            num_candidates = feature_matrix.shape[0]
            negative_pool = np.delete(np.arange(num_candidates), positive_row)
            if len(negative_pool) == 0:
                negative_pool = np.asarray([positive_row])
            replace = len(negative_pool) < self.negatives_per_positive
            chosen = self._rng.choice(negative_pool, size=self.negatives_per_positive, replace=replace)
            rows = np.concatenate([[positive_row], chosen])
            blocks.append(feature_matrix[rows])
        return np.concatenate(blocks, axis=0)

    def _validation_loss(self, validation: List[Tuple[np.ndarray, int]]) -> float:
        """Early-stopping criterion: negative mean DCG gain of the positive row.

        For each held-out validation user the positive's rank within her full
        candidate set is converted to the NDCG-style gain ``1 / log2(rank+1)``
        and the criterion is the negated mean (lower is better).  This
        position-aware criterion tracks the reported metrics much more closely
        than a likelihood would: it is dominated by how the fused scores order
        the *top* of each candidate list rather than by how badly the hardest
        positives are ranked.
        """

        if not validation:
            return float(self.loss_history[-1]) if self.loss_history else 0.0
        self.network.eval()
        gains: List[float] = []
        with nn.no_grad():
            for feature_matrix, positive_row in validation:
                logits = self._forward_tensor(nn.Tensor(feature_matrix)).data
                rank = int(np.sum(logits >= logits[positive_row]))
                gains.append(1.0 / np.log2(rank + 1.0))
        return -float(np.mean(gains))

    # ------------------------------------------------------------------ #
    # fused scoring (eq. 15)
    # ------------------------------------------------------------------ #
    def freeze(self, _lazy: bool = False) -> bool:
        """Snapshot the weights for the pure-NumPy serving forward.

        Serving never needs gradients, yet :meth:`_forward_tensor` still
        builds an ``nn.Tensor`` autograd graph per request; on the small
        candidate matrices of a single user that graph construction dominates
        the arithmetic.  ``freeze`` copies the layer weights (and the skip
        weights) into plain arrays that :meth:`predict` runs through
        :meth:`_forward_frozen` instead.  Returns ``False`` — leaving the
        tensor path in charge — when the network contains a module the frozen
        forward does not know (a custom activation).

        The snapshot is rebuilt at the end of every :meth:`fit`; call
        ``freeze`` again (or :meth:`thaw`) after mutating weights by hand.
        Either way the ``generation`` counter advances, so serving caches
        drop entries computed under the old weights.  (``_lazy`` marks the
        snapshot :meth:`predict` builds on first use: the weights are
        unchanged since the last generation bump, and a mid-request bump
        would store that request's cache entries under an already-stale
        token.)
        """

        if not _lazy:
            self.generation += 1
        layers: List[Tuple[str, Optional[np.ndarray], Optional[np.ndarray]]] = []
        for module in self.network.network:
            if isinstance(module, nn.Linear):
                bias = None if module.bias is None else module.bias.data.copy()
                layers.append(("linear", module.weight.data.copy(), bias))
            elif isinstance(module, nn.ReLU):
                layers.append(("relu", None, None))
            elif isinstance(module, nn.Sigmoid):
                layers.append(("sigmoid", None, None))
            elif isinstance(module, nn.Tanh):
                layers.append(("tanh", None, None))
            elif isinstance(module, nn.Dropout):
                continue  # inactive in eval mode — nothing to snapshot
            else:
                self._frozen = None
                self._freeze_failed = True
                return False
        skip = self.skip_weights.data.copy() if self.score_skip else None
        self._frozen = (layers, skip)
        self._freeze_failed = False
        return True

    def thaw(self) -> None:
        """Drop the frozen snapshot; :meth:`predict` re-freezes lazily.

        Like :meth:`freeze`, advances the ``generation`` counter: thaw is a
        documented hook after hand-mutating weights, and a cache hit would
        otherwise short-circuit the lazy re-freeze that records the change.
        """

        self.generation += 1
        self._frozen = None
        self._freeze_failed = False

    def _forward_frozen(self, features: np.ndarray) -> np.ndarray:
        """Pure-NumPy mirror of :meth:`_forward_tensor` over the snapshot.

        Runs the same operations in the same order on the same float64
        arrays, so outputs match the tensor path to float precision without
        constructing any autograd graph.
        """

        layers, skip = self._frozen
        x = np.asarray(features, dtype=np.float64)
        for kind, weight, bias in layers:
            if kind == "linear":
                x = x @ weight
                if bias is not None:
                    x += bias  # in place: a window's activations are megabytes
            elif kind == "relu":
                x = np.maximum(x, 0.0, out=x if x is not features else None)
            elif kind == "sigmoid":
                # Mirror Tensor.sigmoid exactly, including its overflow clip.
                x = 1.0 / (1.0 + np.exp(-np.clip(x, -60.0, 60.0)))
            else:
                x = np.tanh(x)
        logits = x.reshape(-1)
        if skip is not None:
            score_block = np.asarray(features, dtype=np.float64)[:, self.input_dim - 2:]
            logits = logits + (score_block * skip).sum(axis=1)
        return logits

    # ------------------------------------------------------------------ #
    # snapshot persistence
    # ------------------------------------------------------------------ #
    def snapshot_state(self) -> dict:
        """Serializable state tree for :mod:`repro.core.snapshot`.

        Covers the trained weights (network + skip path), every constructor
        hyperparameter, the ``generation`` counter, and whether a frozen
        serving snapshot was active — :meth:`restore_state` rebuilds the
        frozen NumPy fast path from the restored weights.
        """

        arrays = {
            f"network.{name}": value for name, value in self.network.state_dict().items()
        }
        arrays["skip_weights"] = self.skip_weights.data.copy()
        return {
            "meta": {
                "embedding_dim": self.embedding_dim,
                "hidden_dims": list(self.hidden_dims),
                "dropout": self.dropout,
                "learning_rate": self.learning_rate,
                "weight_decay": self.weight_decay,
                "num_epochs": self.num_epochs,
                "batch_size": self.batch_size,
                "negatives_per_positive": self.negatives_per_positive,
                "validation_fraction": self.validation_fraction,
                "patience": self.patience,
                "score_skip": self.score_skip,
                "seed": self.seed,
                "generation": self.generation,
                "frozen": self._frozen is not None,
            },
            "arrays": arrays,
        }

    @classmethod
    def restore_state(cls, state: dict) -> "IntegratingMLP":
        """Rebuild a trained merger from :meth:`snapshot_state` output.

        The restored instance serves bit-identically: the exact saved
        weights land in the network, the skip path, and (when the saved
        merger was frozen) a rebuilt frozen snapshot, without bumping
        ``generation`` past its saved value.
        """

        meta = state["meta"]
        merger = cls(
            embedding_dim=int(meta["embedding_dim"]),
            hidden_dims=tuple(meta["hidden_dims"]),
            dropout=meta["dropout"],
            learning_rate=meta["learning_rate"],
            weight_decay=meta["weight_decay"],
            num_epochs=int(meta["num_epochs"]),
            batch_size=int(meta["batch_size"]),
            negatives_per_positive=int(meta["negatives_per_positive"]),
            validation_fraction=meta["validation_fraction"],
            patience=int(meta["patience"]),
            score_skip=bool(meta["score_skip"]),
            seed=int(meta["seed"]),
        )
        arrays = state["arrays"]
        merger.network.load_state_dict(
            {
                name[len("network."):]: value
                for name, value in arrays.items()
                if name.startswith("network.")
            }
        )
        merger.skip_weights.data = np.asarray(arrays["skip_weights"], dtype=np.float64).copy()
        merger.network.eval()
        if bool(meta["frozen"]):
            merger.freeze(_lazy=True)
        merger.generation = int(meta["generation"])
        return merger

    def predict(self, features: CandidateFeatures) -> np.ndarray:
        """Fused scores ``r̂^fi`` for every candidate of ``features`` (same order).

        One forward pass covers a whole window's candidates.

        Serves through the frozen NumPy fast path (building it lazily on the
        first call); falls back to the differentiable tensor forward only
        when the network cannot be frozen.
        """

        if self._frozen is None and not self._freeze_failed:
            self.freeze(_lazy=True)
        if self._frozen is not None:
            return self._forward_frozen(features.features)
        self.network.eval()
        with nn.no_grad():
            logits = self._forward_tensor(nn.Tensor(features.features))
        return logits.data.copy()
