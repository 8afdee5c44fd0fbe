"""Federated-learning simulator with latent-similarity contribution weighting.

Names are imported from their modules; the package re-exports none.
``contribution`` turns mean latents into factors and weights, ``simulation``
builds a run and plays its rounds, and ``config``, ``data``, ``nn``,
``strategies`` and ``cli`` hold the settings, data, model, rules and CLI.
"""

__version__ = "0.1.0"
