"""Bundled test complexes: point, 2-sphere, projective plane, torus,
Klein bottle, each a vertex-minimal triangulation shipped as a data file."""

from __future__ import annotations

from .complex_model import SimplicialComplex, load_complex

CORPUS_NAMES = ("point", "sphere_s2", "rp2_6", "torus_7", "klein_8")


def load_corpus_complex(name: str) -> SimplicialComplex:
    if name not in CORPUS_NAMES:
        raise KeyError(f"unknown corpus complex {name!r}; have {CORPUS_NAMES}")
    # every CLI process imports this module; only `verify --corpus` reads files
    from importlib import resources
    text = resources.files("altchain.data").joinpath(f"{name}.json").read_text()
    return load_complex(text)


def load_corpus() -> list:
    """All bundled complexes as (name, complex) pairs in fixed order."""
    return [(name, load_corpus_complex(name)) for name in CORPUS_NAMES]
