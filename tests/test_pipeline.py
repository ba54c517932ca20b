"""End-to-end image pipeline on a synthetic 512x512 photo-like raster.

The real benchmark image is external (see test_acceptance criterion 7);
this module proves the identical pipeline shape on generated data: decode,
tile, fit all families at several pinned means, and check the invariants
that hold for any image.
"""

import numpy as np

import gaussmatch as gm


def synthetic_photo(size=512, seed=20):
    """Smooth color gradients plus texture noise, quantized to 8 bits."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:size, 0:size] / (size - 1)
    channels = [
        0.55 + 0.3 * np.sin(2 * np.pi * (1.5 * x + 0.3)) * np.cos(2 * np.pi * y),
        0.45 + 0.35 * x * y,
        0.5 + 0.25 * np.cos(2 * np.pi * (x - 2.0 * y)),
    ]
    stack = np.stack(channels, axis=-1) + rng.normal(0.0, 0.04, (size, size, 3))
    pixels = np.clip(np.rint(stack * 255.0), 0, 255).astype(np.uint16)
    return gm.Raster(pixels=pixels, maxval=255)


def test_image_report_structure(tmp_path):
    raster = synthetic_photo()
    path = tmp_path / "synthetic.ppm"
    gm.write_ppm(raster, path)
    decoded = gm.read_ppm(path)
    assert np.array_equal(decoded.pixels, raster.pixels)

    blocks = gm.image_to_blocks(decoded, block_size=8)
    assert blocks.shape == (4096, 192)
    assert blocks.min() >= 0.0 and blocks.max() <= 1.0

    mom = gm.estimate_moments(blocks)
    means = [mom.mean, np.full(192, 0.5), np.zeros(192)]
    rows = gm.family_report(mom, means)
    assert len(rows) == 3 + 3 * len(means)

    by_family = {}
    for row in rows:
        by_family.setdefault(row.family.kind, []).append(row.match)

    # the full fit is exact, pinning at the data mean costs nothing
    assert by_family[gm.Family.FULL][0] == 0.0
    assert abs(by_family[gm.Family.FIXED_MEAN][0]) <= 1e-12
    # nesting across the fixed-mean chain, for each pinned mean
    for i in range(len(means)):
        fm = by_family[gm.Family.FIXED_MEAN][i]
        fm_diag = by_family[gm.Family.FIXED_MEAN_DIAGONAL][i]
        fm_iso = by_family[gm.Family.FIXED_MEAN_ISOTROPIC][i]
        assert fm <= fm_diag + 1e-9
        assert fm_diag <= fm_iso + 1e-9
    # free-mean chain
    assert by_family[gm.Family.FULL][0] <= by_family[gm.Family.DIAGONAL][0] + 1e-9
    assert by_family[gm.Family.DIAGONAL][0] <= by_family[gm.Family.ISOTROPIC][0] + 1e-9

    # whitening the tile cloud through the full fit normalizes it
    transform = gm.whitening_transform(gm.fit(mom, gm.FamilySpec(gm.Family.FULL)).model)
    white = gm.estimate_moments(transform.apply(blocks))
    assert np.abs(white.mean).max() < 1e-9
    assert np.abs(white.cov - np.eye(192)).max() < 1e-8
