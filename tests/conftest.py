import pytest

import pamfk.fbm


@pytest.fixture
def fbm_draws(monkeypatch):
    """Seeds of every grid path drawn through pamfk.fbm, in draw order."""
    seeds = []
    many = pamfk.fbm.sample_grid_paths

    def counted_many(h, grid, batch):
        seeds.extend(batch)
        return many(h, grid, batch)

    monkeypatch.setattr(pamfk.fbm, "sample_grid_paths", counted_many)
    return seeds
