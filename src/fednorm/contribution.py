"""Client contribution weighting from mean latent representations.

Each client reports the mean activation of the model's last hidden layer over
its local shard.  Pairwise cosine similarities between these mean latents form
a matrix S; the temperature-softmaxed row sums give every client a factor

    lambda_r = 1 - softmax(sigma / T)_r,    sigma_r = sum_p S[r, p]

which is small for clients that look like everyone else and large for clients
holding data the cohort has not seen.  The factors then rescale a strategy's
importance weights nu into aggregation weights u on the simplex.

Their reach is bounded.  With p = softmax(sigma / T), u_r - nu_r =
nu_r (p.nu - p_r) / (1 - p.nu), so

    ||u - nu||_1 <= 2 p.nu / (1 - p.nu) <= 2 nu_max / (1 - nu_max),
    u_r / nu_r <= 1 / (1 - nu_max).

With equal shares over K clients the factors move at most 2 / (K - 1) of the
weight and raise a share by at most K / (K - 1), so their effect fades as
the cohort grows.
"""

from __future__ import annotations

import numpy as np

MIN_LATENT_NORM = 1e-12


class DegenerateLatent(ValueError):
    """A mean latent has (near-)zero norm, so cosine similarity is undefined."""

    def __init__(self, client_id=None, norm=None):
        self.client_id = client_id
        who = "vector" if client_id is None else f"client {client_id}"
        super().__init__(
            f"mean latent of {who} has norm {norm}, below {MIN_LATENT_NORM}; "
            "cosine similarity is undefined"
        )


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity, clamped to [-1, 1] against rounding spill."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < MIN_LATENT_NORM:
        raise DegenerateLatent(norm=float(na))
    if nb < MIN_LATENT_NORM:
        raise DegenerateLatent(norm=float(nb))
    return float(np.clip((a @ b) / (na * nb), -1.0, 1.0))


def similarity_matrix(latents, client_ids) -> np.ndarray:
    """Pairwise cosine matrix of the clients' mean latents.

    ``latents[i]`` is the mean latent of client ``client_ids[i]``.  Symmetric
    with an exactly unit diagonal; needs at least two latents of a common
    dimension.  Raises DegenerateLatent naming the offending client when some
    mean latent has (near-)zero norm.
    """
    if len(latents) != len(client_ids):
        raise ValueError(f"{len(latents)} latents for {len(client_ids)} client ids")
    if len(latents) < 2:
        raise ValueError(f"similarity needs >= 2 clients, got {len(latents)}")
    dims = {np.shape(latent) for latent in latents}
    if len(dims) != 1:
        raise ValueError(f"latent dimensions differ across clients: {sorted(dims)}")
    z = np.stack([np.asarray(latent, dtype=np.float64).ravel() for latent in latents])
    norms = np.linalg.norm(z, axis=1)
    for client_id, norm in zip(client_ids, norms):
        if norm < MIN_LATENT_NORM:
            raise DegenerateLatent(client_id=client_id, norm=float(norm))
    unit = z / norms[:, None]
    s = unit @ unit.T
    s = (s + s.T) / 2.0  # force bitwise symmetry
    np.clip(s, -1.0, 1.0, out=s)
    np.fill_diagonal(s, 1.0)
    return s


def contribution_factors(similarity: np.ndarray, temperature: float) -> np.ndarray:
    """Per-client factors 1 - softmax(row_sums / T).

    Row sums include the unit diagonal.  Factors always lie in (0, 1) and sum
    to R - 1 exactly up to rounding; low temperature sharpens the contrast
    between redundant and distinct clients.
    """
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    s = np.asarray(similarity, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"similarity matrix must be square, got shape {s.shape}")
    r = s.shape[0]
    # sum the off-diagonal entries compressed, then add the diagonal: the sum
    # order is then the same for every row, so identical latents give bitwise
    # identical row sums (a plain axis sum varies with the diagonal position)
    off = s[~np.eye(r, dtype=bool)].reshape(r, r - 1)
    sigma = off.sum(axis=1) + np.diagonal(s)
    with np.errstate(over="ignore"):
        scaled = sigma / temperature
        if not np.isfinite(scaled).all():
            raise ValueError(
                f"temperature {temperature!r} is too small: row sums / temperature "
                "overflow float64"
            )
        # a gap below the float range rounds to -inf, whose exp is exactly 0
        scaled -= scaled.max()
    e = np.exp(scaled)
    return 1.0 - e / e.sum()


def normalize_weights(factors: np.ndarray, importance: np.ndarray) -> np.ndarray:
    """Rescale importance weights by the contribution factors.

    ``importance`` must be a probability vector; the result is again on the
    simplex.  Uniform factors reproduce ``importance`` (bitwise for uniform
    importance).
    """
    lam = np.asarray(factors, dtype=np.float64)
    nu = np.asarray(importance, dtype=np.float64)
    if lam.shape != nu.shape or lam.ndim != 1:
        raise ValueError(f"shape mismatch: factors {lam.shape}, importance {nu.shape}")
    if (nu < 0).any():
        raise ValueError("importance weights must be non-negative")
    if abs(nu.sum() - 1.0) > 1e-9:
        raise ValueError(f"importance weights must sum to 1, got {nu.sum()!r}")
    if (lam < 0).any():
        raise ValueError("contribution factors must be non-negative")
    combined = lam * nu
    total = combined.sum()
    if not total > 0:
        raise ValueError("all rescaled weights vanished; cannot normalize")
    return combined / total
