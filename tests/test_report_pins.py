"""Full report text of the estimate and saddle commands on class-structured
instances, pinned by sha256.

Each instance has n in the thousands but only one to three distinct degrees,
and its forbidden edges sit on vertices that share their degree with free
vertices, so a change that sums over degree classes instead of vertices must
reproduce every report byte for byte.
"""

import hashlib
import io

import pytest

from degcount import cli

# name: (n, degree classes, forbidden edges); vertex j takes classes[j % len(classes)]
INSTANCES = {
    "n1000-two": (1000, (400, 403),
                  [(1, 2), (2, 3), (3, 4), (1, 4), (10, 501), (777, 778)]),
    "n2000-three": (2000, (900, 904, 912),
                    [(1, 2), (1, 3), (2, 3), (3, 4), (50, 1999), (1000, 1001), (1000, 1500)]),
    "n1000-regular": (1000, (500,), [(1, 2), (2, 3), (1, 3), (40, 41)]),
}
INDUCED_EDGES = [(1, 2), (2, 3), (3, 4), (1, 3)]   # supported on vertices 1..4

ESTIMATES = ("naive", "dense", "miss", "hit", "num", "perth", "mckay81")

PINNED = {
    ("n1000-two", "estimate", "naive"):
        "5a27478f326c4d292205cd21266fc4121ecb660809cb21844425ba43a57fa832",
    ("n1000-two", "estimate", "dense"):
        "6693528c0b7bc1c38d2b68cfaf8fe7777e374d914b64abf5c19c843450c53cab",
    ("n1000-two", "estimate", "miss"):
        "90868bcdb017c935b098a17750b1d614b78a930250692e256ef2fb535c9c8d85",
    ("n1000-two", "estimate", "hit"):
        "c81ffd4956f6285c20f826b3a77cbc3f46c2d60f3a61ab737eee9dce34318578",
    ("n1000-two", "estimate", "num"):
        "e454aecacf2f9d3587717f37dea298c88e0c2628eaa5363f9c481b296ef1e4f0",
    ("n1000-two", "estimate", "perth"):
        "442beb19013dbbbf3ffe2e71b4b3e3960a71b0af5e2c1419bd52dfa45f7dd56b",
    ("n1000-two", "estimate", "mckay81"):
        "cb2efb0421e7368f171371e9eb99c269ff727a1edc43ea86c3bf3fb847b2b13b",
    ("n1000-two", "estimate", "induced"):
        "4b24db84df246cbf23a4b066f1deabd855158e1dda2334b21c047baa8e70a8d6",
    ("n1000-two", "saddle", "converge"):
        "56cced35b09debeeabafe062daa8b1ef1c7a2e0d8087c6449df78371950c405e",
    ("n1000-two", "saddle", "fixed"):
        "08e0dc125326171142870b928fa10415c976824f2e89c12fe1bbdfbba5c78b29",
    ("n2000-three", "estimate", "naive"):
        "1da32aaf04504f427e4d458fccbf2b26106c5ef8afc05ed6c0de866653af618c",
    ("n2000-three", "estimate", "dense"):
        "07bf0cc887b1ec14e606ce9ed4a7c03f948e62eb9e0342033490c389ab7e29f6",
    ("n2000-three", "estimate", "miss"):
        "0e5bad355ab4bb4bd139d600c5482f70a660ab1fb3d44bc32c52929a7a7c2ae6",
    ("n2000-three", "estimate", "hit"):
        "9c4181a7e089ac0455f0a30643fff9bf5645de9673ae2e446380c7c00a507046",
    ("n2000-three", "estimate", "num"):
        "ab0f9e66cd8a0ecd0e9966af1051c0f8cb4c2a6900d99e27ee892e5d0f51dd99",
    ("n2000-three", "estimate", "perth"):
        "4553ccd3f479fc27879880612d6dfd52e892c4a0afdb881df41ef590c5340e87",
    ("n2000-three", "estimate", "mckay81"):
        "386ca1355456c52be163c509567aa6c704007bb7e30fc89e7a14c9730a3994f4",
    ("n2000-three", "estimate", "induced"):
        "e77070e22473c60ecd4a54953502daf90c12957d6fd45569e07b1f9e53aa87da",
    ("n2000-three", "saddle", "converge"):
        "807011013d5b1397b9657d6f3e97225b1567cf0f411e72e7388b04c1edbc97c0",
    ("n2000-three", "saddle", "fixed"):
        "7bfb085924b6d73d4b148890d69d3b95a88661e705629c3b210143566ab46077",
    ("n1000-regular", "estimate", "naive"):
        "f93617cefcd20b8861993957bf061a8c2aa752f6c32493d54572581aceef8e3c",
    ("n1000-regular", "estimate", "dense"):
        "478e4b53060201c106343c0b5e2354a4908631a016d18837954380249a1f83fa",
    ("n1000-regular", "estimate", "miss"):
        "57e5f407642a00b081b8e62df7e3047e4cb081c49a5c7815dcac28dab3e5fd8f",
    ("n1000-regular", "estimate", "hit"):
        "af37b54c51cc4e453c09b5123e4e41fc939c31e931fbeee8fba9c77c870cc315",
    ("n1000-regular", "estimate", "num"):
        "b00aac23d46bf88701bf02abbf8b0e0bc0e0fd9a3da6895af8bb32ef2f41ec51",
    ("n1000-regular", "estimate", "perth"):
        "f6fb6ab6cdb74a1f50c288c2e3177a003cebae6e29a6a0980b74d688963f96ed",
    ("n1000-regular", "estimate", "mckay81"):
        "7776267947422775d39c692e4e86e26258638521e23dab39d3b38402dc9229c2",
    ("n1000-regular", "estimate", "flat"):
        "20b8e61c9f1e38e1e62a68d1e413fb677aaf8c514e5bea22aab6e873d469d147",
    ("n1000-regular", "estimate", "induced"):
        "4ed46489dc56361512b6f31324d7bc93ea753c2951d207beceff85a4c8c4c690",
    ("n1000-regular", "saddle", "converge"):
        "1f84591c1605239bf8c12b62d47dcaad594130d63e74d45c3883d8ada8a06b14",
    ("n1000-regular", "saddle", "fixed"):
        "fb991292b0e61372e40d884cd94aabdaaa5da6f4216811615e84eba405a19513",
}


def _write(path, lines):
    path.write_text("".join(f"{line}\n" for line in lines))
    return str(path)


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pins")
    files = {}
    for name, (n, classes, edges) in INSTANCES.items():
        dpath = _write(root / f"{name}-d.txt", (classes[j % len(classes)] for j in range(1, n + 1)))
        xpath = _write(root / f"{name}-x.txt", (f"{j} {k}" for j, k in edges))
        ipath = _write(root / f"{name}-x4.txt", (f"{j} {k}" for j, k in INDUCED_EDGES))
        files[name] = (dpath, xpath, ipath)
    return files


def _reports():
    for name, (_, classes, _) in INSTANCES.items():
        for formula in ESTIMATES + (("flat",) if len(classes) == 1 else ()):
            yield name, "estimate", formula
        yield name, "estimate", "induced"
        for mode in ("converge", "fixed"):
            yield name, "saddle", mode


def _argv(files, name, command, variant):
    dpath, xpath, ipath = files[name]
    if command == "saddle":
        return ["saddle", "--degrees", dpath, "--forbidden", xpath, "--mode", variant]
    if variant == "induced":
        return ["estimate", "--formula", "induced", "--degrees", dpath,
                "--forbidden", ipath, "--m", "4"]
    return ["estimate", "--formula", variant, "--degrees", dpath, "--forbidden", xpath]


def report_digest(files, key) -> str:
    buf = io.StringIO()
    assert cli.main(_argv(files, *key), stdout=buf) == 0
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", list(_reports()), ids="-".join)
def test_report_text_is_pinned(instance_files, key):
    assert report_digest(instance_files, key) == PINNED[key]
