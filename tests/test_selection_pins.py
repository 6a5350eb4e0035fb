"""Every strategy's pick, pinned bit for bit on seeded query contexts.

A digest covers the positions, the weight column and the cluster column
(dtype, shape and bytes, or None), so a refactor of the selection code that
moves any pick, any weight bit or any cluster label fails here. The contexts
cover tied scores, a feature set too degenerate to fill every k-means
cluster, and a batch that takes the whole pool. Run this file as a script
to print the digests of the code as it stands.
"""

import hashlib

import numpy as np
import pytest

from paal.strategies import STRATEGIES, QueryContext, select


def _probs(rng, n, classes=4, hw=3):
    raw = rng.uniform(0.05, 1.0, size=(n, classes, hw, hw)).astype(np.float32)
    return raw / raw.sum(axis=1, keepdims=True)


def seeded(n, b, seed):
    rng = np.random.default_rng(seed)
    return QueryContext(
        ids=np.sort(rng.choice(1000, size=n, replace=False)), b=b, seed=seed,
        probs=_probs(rng, n),
        features=rng.normal(size=(n, 4)).astype(np.float32),
        pred_acc=rng.uniform(0.0, 1.0, size=(n, 3)).astype(np.float32),
        labeled_features=rng.normal(size=(5, 4)).astype(np.float32))


def tied():
    """Three posteriors, two accuracy rows and a coarse feature grid shared
    by 24 samples, with the ids out of order, so every ranking ties."""
    rng = np.random.default_rng(3)
    n = 24
    which = rng.integers(0, 3, size=n)
    return QueryContext(
        ids=rng.permutation(np.arange(500, 500 + n)), b=5, seed=3,
        probs=_probs(rng, 3)[which],
        features=rng.integers(-1, 2, size=(n, 2)).astype(np.float32),
        pred_acc=np.array([[0.5, 0.25, 1.0], [0.25, 1.0, 0.5]],
                          dtype=np.float32)[which % 2],
        labeled_features=np.ones((2, 2), dtype=np.float32))


def empty_clusters():
    """Two distinct feature points for five clusters, and nothing labeled."""
    rng = np.random.default_rng(5)
    n = 12
    feats = np.zeros((n, 3), dtype=np.float32)
    feats[::3] = 2.0
    return QueryContext(
        ids=np.arange(40, 40 + n), b=5, seed=5, probs=_probs(rng, n),
        features=feats,
        pred_acc=rng.uniform(0.0, 1.0, size=(n, 3)).astype(np.float32),
        labeled_features=np.zeros((0, 3), dtype=np.float32))


CONTEXTS = {
    "seeded": lambda: seeded(30, 6, 7),
    "tied": tied,
    "empty_clusters": empty_clusters,
    "whole_pool": lambda: seeded(7, 7, 11),
}


def digest(selection) -> str:
    h = hashlib.sha256()
    for part in selection:
        if part is None:
            h.update(b"None|")
        else:
            h.update(f"{part.dtype.str}{part.shape}|".encode())
            h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


PINS = {
    "seeded": {
        "random": "fe5c0087db2a06ba8226dca19627149cc1f6bbf14811f4c5a670b4ab99b8aa51",
        "max_entropy": "ba56ac1a445e2c1a3873cbd381ce5446824620c98cc7d6885d4d90e749191554",
        "least_conf": "701b96ab57dfdb1fa8538ce50c1fbc5aa0c56d23de0274f33e3a766487475a79",
        "margin": "7120d4620b4e4d4fd33f4d22660b41c197f159ed7459b470fc5d13dea289105a",
        "var_ratio": "6d9346f8a05cd5bd7e52a490b00d619f5bff11ab4174585a0319bffa47c25f45",
        "kmeans_diversity": "d9aa4db64dbaaf9de87d033a2802170444588e5a59630b4c8fa1cbed24272619",
        "entropy_kmeans": "09339bd759ced3c572b9b4abcd3f43aea857dfd4a9e37414b22861c255db4939",
        "coreset": "899c25f4ea48ad3a54a0a3a2a65736ab36d91a52c73819a398cbe453bdc1391e",
        "paal_ap_only": "3e1536f0174e28e8dd3af2977faa3ee73db0cb0c75c004c4711de59c7c799104",
        "paal_full": "67ccf77ed7b6beff815c5566345c6ae2114287ec197c436684abccdd6e3c8681",
    },
    "tied": {
        "random": "f3056a70ed3eb657a2694d8f25bc933b7500c89fb2dc7685d6dfae4194bcaf8d",
        "max_entropy": "b9447ba713340815ad8ccb57efb32d7954a5e91895c18ff6f08a6bcda1b68415",
        "least_conf": "e924950b9f4226b7a4dab448591dad8d808ce04e37c797e22f538c061ea86545",
        "margin": "6efa76f2a9d22d1074734920f1b6f58751f16583991f069c62680c02543e0dba",
        "var_ratio": "b4338ff05bfd02b22162c723ccc35ffecaafe36d818dfbbf9b37fc6d1eb8b86d",
        "kmeans_diversity": "24d65878192b019c254a9e771047948f0115ab62eb22dd4d4749ea0c561e60cd",
        "entropy_kmeans": "22811ec9b703021298220ee7936b0feba3b1b81239eaeb8f4433e6129529fc00",
        "coreset": "5a3243ec265aad95f9fdce7307d667419d3bb12ca1940af747b6e3bcd853112a",
        "paal_ap_only": "e707a88ebc345974ff6c53193b9b275d9e64de7bd1755562b8350fa97caf5ef7",
        "paal_full": "c4b6be0eb050e042cc307e5509cc5d7f1bfc5295d4ce13a30a05544ac77e7b16",
    },
    "empty_clusters": {
        "random": "80c50e72304c0d310898abc3454f5de80a4bd1dad57cb025ea0c490723729bb6",
        "max_entropy": "bd385048e724adeb78a861c5c7835a6c5d0c57c03775ad4f27b0023505e3b66b",
        "least_conf": "7741ffd4a42be5c528bd309033248d1cb54b6ba688b5569b404696cd33facde0",
        "margin": "4ab61ae5e746e14599254b048992d0d379b5768fbb30e873da0c9974fc1d26ee",
        "var_ratio": "27176a891016f5d1c9325537e4d87934ea5fdf3dccade10f0fed1e1459cadc17",
        "kmeans_diversity": "d86ec2890293103189ba232da8e67925729f3d0dad9c1ab62690e22a001ada98",
        "entropy_kmeans": "ea3634ddfe16149ece827a389157ad85bd1315dfe9d45e1f89e42b0bdbbf169d",
        "coreset": "a10b52ac864140356b9b080787f875b1285d359fee00d652ff73564c9a430cf5",
        "paal_ap_only": "e19f0b122853f9bae927886f375e480694b985ae6a129ba88994d6709251bb85",
        "paal_full": "8f5ec2c251ecac532e85167aec24f31e756c15fdcc4ec1710b6f8778941ad857",
    },
    "whole_pool": {
        "random": "f6474ba03c2b92075045d8b3bac2e32ff92c04cb9e91e37b036e59092af22f97",
        "max_entropy": "676f128e921dc1ef6f6049d4c387f7bb6783f8ed403ced4439706b0cf54baa9d",
        "least_conf": "ab5cd69dad87603398b9ffe69dd1f050e1edc075ec607a3003481e972ea093d3",
        "margin": "6657d72eff09eb15af96a07b0ddd40ee54c0dd64dfbf7403dd8321071dbb2272",
        "var_ratio": "72a758ec5392b536462c6a32479f81b719ed6e8d168acb3a0f811f0aeda7061b",
        "kmeans_diversity": "e7eebb80c00dbb2c49969bee01930e61c7024db03ae8db9451e6560f89f6fdc0",
        "entropy_kmeans": "5bbd464c201b587e79a1264e9f069c5fc79ae1c174cc26d884df56bb7ed293a1",
        "coreset": "ff599da6da84b73bf5e2de050e3d71a749d34f53e86b2a5a74e22291d4deedaf",
        "paal_ap_only": "5b6f28170ae35b4d0d2225d0ec217af3f7f553a4525b3e646446c7859015fb94",
        "paal_full": "e02e844414c01ce214173b7cec4884dd6c249593fe72ca5a1d0b3a64ae839594",
    },
}


@pytest.mark.parametrize("context", CONTEXTS)
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_the_pick_is_pinned(strategy, context):
    assert digest(select(strategy, CONTEXTS[context]())) == PINS[context][strategy]


if __name__ == "__main__":
    for name, make in CONTEXTS.items():
        print(f'    "{name}": {{')
        for strategy in STRATEGIES:
            print(f'        "{strategy}": "{digest(select(strategy, make()))}",')
        print("    },")
