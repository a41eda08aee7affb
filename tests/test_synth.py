import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ranklosslab
from ranklosslab import (
    LinearModel,
    SampleBatch,
    SynthConfig,
    ap_loss,
    auc_loss,
    generate,
    score_dataset,
)


class TestDeterminism:
    def test_same_seed_identical(self):
        cfg = SynthConfig(dim=7, positives=5, negatives=30, margin=0.1, seed=42)
        a, b = generate(cfg), generate(cfg)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_array_equal(a.group_ids, b.group_ids)

    def test_different_seeds_differ(self):
        cfg = SynthConfig(dim=7, positives=5, negatives=30, margin=0.1, seed=42)
        other = generate(SynthConfig(dim=7, positives=5, negatives=30, margin=0.1, seed=43))
        assert not np.array_equal(generate(cfg).features, other.features)


# sha256 of the bytes of features, labels, group ids and separator, as
# the generator drew them when it concatenated per-group blocks; filling
# one preallocated array must keep every byte.
PINNED = {
    "one_group_5_500": (
        SynthConfig(dim=20, positives=5, negatives=500, margin=0.1, seed=11),
        "2be521e352c1806fe86d62fce07c793c10e068498bdbc54be1d722089ed7005b",
        "9af34fc34fcec4b50c91312095b3632d8d20ca73ab95add9ab50dbd819bc0cbc",
        "bf45005795ffa8764d42f0a53d8ebc6e2068469ef97f4b0b6310e3d22063185c",
        "4df7fb47da5485c79efe26dd8417b6eb48a82ecc72f2dbaecdb4f80baead3553",
    ),
    "three_groups_shift": (
        SynthConfig(
            dim=8, positives=10, negatives=60, groups=3, margin=0.3, score_shift=2.5, seed=12
        ),
        "87940e97508b85f93c98f29fb0ee71775c1b59459cb9f90d97b7243c2976d526",
        "998006c8747e9b703e2dc1649e52207ec2d5bc862c39d45b11d9de4fbba623e5",
        "e845340683dcd60b72f52e187a5b5f4f4db5018ebb76d67dbd0d02fa23ec8720",
        "b49fcf862fc77e1f42a1ad7f76f6457550ded93d7821c71b0860611686824e35",
    ),
    "negative_margin": (
        SynthConfig(dim=6, positives=12, negatives=40, margin=-0.5, noise_sigma=1.5, seed=13),
        "5ca9eaf8dfc6fde6527cc665d5fd4ffa7a6c194a41138854fb9ca2877375675f",
        "d8ef24c7d71cf96018cdaaabc7259ed7812f9eccb885cca0be26bf42b29b1ed4",
        "4cc7e6272db6b1ad7581f76c63c694e926e20698e9b02223d5041a55960463f2",
        None,
    ),
    "empty_group": (
        SynthConfig(dim=4, positives=1, negatives=1, groups=3, margin=0.2, seed=14),
        "8a247d1cb3aae9efaa5748186a39b7088b7c14108c872b992f286961ad96fffa",
        "4cbbd8ca5215b8d161aec181a74b694f4e24b001d5b081dc0030ed797a8973e0",
        "374708fff7719dd5979ec875d56cd2286f6d3cf7ec317a3b25632aab28ec37bb",
        "cb9a7d919324fd37043a1a5996fee49ed8bea856932f1fcdc10a687609fe04a3",
    ),
    "dim_1": (
        SynthConfig(dim=1, positives=3, negatives=9, margin=0.2, seed=15),
        "566f1b7d1d19a710f55644d86df97fb436963b19a0db8b1dcf4e3aac904b8940",
        "12ffb2763fb051ee6e7bead9fcc7097b7793284dfa4da8a15e734df9e5335401",
        "2ea9ab9198d1638007400cd2c3bef1cc745b864b76011a0e1bc52180ac6452d4",
        "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    ),
    # Groups of several row blocks, with positives past the first block and
    # row counts that are not a multiple of the block, as the generator drew
    # them when it updated each block as a (rows, dim) broadcast.
    "positives_past_a_block": (
        SynthConfig(dim=20, positives=5000, negatives=3001, margin=0.1, seed=16),
        "f45f633e65534a5b13ee71b47157f93be22a5a5db0af79d115db86d80c4656ca",
        "deb66434285db7a48a9f13fe244b60a0850b48fe24f770e10020a018e7d7f46b",
        "4c54a539222f3c905aac0301e071990b204ff0aa4114f41d01fbf93a75a50043",
        "dd27d2560989e69ec217d76fd44b4d44c3f45d33eabb184bc8cff7ff8bab1610",
    ),
    "groups_shift_blocks": (
        SynthConfig(
            dim=5, positives=6201, negatives=4000, groups=2, margin=0.2, score_shift=1.5, seed=17
        ),
        "c7be1545c9d149286369df58947254411f92fb01d554f513aeb4c4a0337edcfc",
        "bcdcda2202e2e98c76255c6194a8c3b0391dcac68a20107dcfae6087e68faabd",
        "9efaf98dafe4ef0e1c5c7171f09bcfea4cd2f70803eee1bb600894e7ebfe8f1e",
        "cde48668a8a4167b201ae10a33711f9726960d393756cbb2fe8ff85e3917f043",
    ),
    "margin_0_blocks": (
        SynthConfig(dim=3, positives=2500, negatives=3000, margin=0.0, seed=18),
        "69bbbd381af85768ff7582b7f347ccfc18c321297c37e8d4461c27eca35a5a56",
        "eea362981ab93c9eea4dda88c682d5a19d6b82bd0408e5ca6c191a8d8a43d430",
        "07d065e6f1896aa07e02829c662b0ac0a7fb3ecfd5688a35bac82b18457aa63e",
        "4f338cd20b71d6fbfacdb30c2122c5cf7e67106c59433ede99f190845231c3ff",
    ),
    "negative_margin_blocks": (
        SynthConfig(
            dim=7,
            positives=4500,
            negatives=2500,
            groups=2,
            margin=-0.4,
            noise_sigma=0.7,
            score_shift=0.5,
            seed=19,
        ),
        "4b4ae82194bdaf87c21af5a8d15362eea7e733bdfb236453267ebba5628040a0",
        "34278f2e8b8dce56d2d692f0ae0a4d3f8109c184859540abfec25624a2e6cec4",
        "41aa6446a33a636f5202dcb45eae67acf26e7b37ac875e7913ed99878cb44415",
        None,
    ),
    "dim_1_blocks": (
        SynthConfig(dim=1, positives=3000, negatives=2001, margin=0.2, seed=20),
        "08e3c057b1b1710a913949f164dc603d7fcce73fcd38e4ed724bf4b594933601",
        "c5b3d0f10a8e13769d5e2afd5c37692afe75b38a1e9993ddbcbae8ebab7b83dc",
        "d5c722c25786a85f0b9dd9de2eb4269d40a77365bb4f4f8d82bbf60bbe1b8dd7",
        "e77817b649821c634355a917817c1224a360514b1244fe09e832bac4e8ea4440",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_generate_keeps_its_pinned_bytes(name):
    cfg, *digests = PINNED[name]
    data = generate(cfg)
    assert data.features.dtype == np.float64
    assert data.labels.dtype == data.group_ids.dtype == np.int64
    arrays = (data.features, data.labels, data.group_ids, data.separator)
    got = [None if a is None else hashlib.sha256(a.tobytes()).hexdigest() for a in arrays]
    assert got == digests


def test_generate_keeps_its_bytes_at_another_blas_thread_count():
    # At 50:50,000 OpenBLAS splits a whole group's projection between two
    # threads, which changes its rounding; a block's projection it does not.
    code = (
        "import hashlib; from ranklosslab import SynthConfig, generate; "
        "data = generate(SynthConfig(positives=50, negatives=50_000)); "
        "print(hashlib.sha256(data.features.tobytes()).hexdigest())"
    )
    digests = []
    for threads in ("1", "2"):
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": str(Path(ranklosslab.__file__).parents[1]),
        }
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


class TestSeparability:
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 2.0])
    def test_certificate_holds_at_any_noise_level(self, sigma):
        cfg = SynthConfig(dim=12, positives=10, negatives=80, margin=0.3, noise_sigma=sigma, seed=7)
        data = generate(cfg)
        assert data.separator is not None
        scores = data.features @ data.separator
        gap = scores[data.labels == 1].min() - scores[data.labels == 0].max()
        assert gap >= cfg.margin - 1e-9

    def test_certificate_survives_group_shifts(self):
        cfg = SynthConfig(
            dim=12, positives=10, negatives=80, groups=4, margin=0.3, seed=8, score_shift=5.0
        )
        data = generate(cfg)
        scores = data.features @ data.separator
        gap = scores[data.labels == 1].min() - scores[data.labels == 0].max()
        assert gap >= cfg.margin - 1e-9

    def test_negative_margin_overlaps(self):
        cfg = SynthConfig(dim=6, positives=20, negatives=40, margin=-0.5, noise_sigma=1.0, seed=9)
        data = generate(cfg)
        assert data.separator is None and data.margin is None
        # The class means are swapped, so the zero model's loss landscape
        # starts badly misordered.
        batch = score_dataset(LinearModel(np.ones(6)), data)
        assert ap_loss(batch) > 0.0


class TestStructure:
    def test_counts_split_across_groups(self):
        cfg = SynthConfig(dim=3, positives=7, negatives=10, groups=3, margin=0.1, seed=1)
        data = generate(cfg)
        assert (data.labels == 1).sum() == 7
        assert (data.labels == 0).sum() == 10
        assert data.groups() == [0, 1, 2]
        sizes = [data.group_rows(g).size for g in data.groups()]
        assert sum(sizes) == 17 and max(sizes) - min(sizes) <= 2

    def test_no_positives_means_zero_losses(self):
        cfg = SynthConfig(dim=4, positives=0, negatives=15, margin=0.1, seed=2)
        data = generate(cfg)
        batch = SampleBatch(data.features @ np.ones(4), data.labels)
        assert ap_loss(batch) == 0.0 and auc_loss(batch) == 0.0

    def test_one_dimensional_features(self):
        cfg = SynthConfig(dim=1, positives=3, negatives=5, margin=0.2, noise_sigma=1.0, seed=3)
        data = generate(cfg)
        assert data.features.shape == (8, 1)
        scores = data.features @ data.separator
        assert scores[data.labels == 1].min() - scores[data.labels == 0].max() >= 0.2 - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(dim=0)
        with pytest.raises(ValueError):
            SynthConfig(positives=-1)
        with pytest.raises(ValueError):
            SynthConfig(groups=0)
        with pytest.raises(ValueError):
            SynthConfig(noise_sigma=-0.1)
        for field in ("margin", "noise_sigma", "score_shift"):
            for bad in (np.inf, -np.inf, np.nan):
                with pytest.raises(ValueError, match=f"^{field} must be finite"):
                    SynthConfig(**{field: bad})
