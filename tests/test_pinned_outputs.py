"""Byte pins of the CLI's deterministic output.

Each case is one command line over two small synthetic inputs: 60 records,
at or under the exact-packing cap of 64, and 100 records, above it. The pin
is the sha256 of ``render_json(strip_volatile(doc))`` with the input path
replaced by ``<in>``, run at seeds 0, 1 and 2. A refactor that keeps every
value, key and metadata field keeps every digest.
"""

import hashlib
import json
from pathlib import Path

import pytest

from chemspace.cli import main, render_json, strip_volatile
from chemspace.fingerprints import write_dataset
from chemspace.synthetic import SyntheticConfig, generate_synthetic

INPUTS = {
    "exact": SyntheticConfig(classes=6, per_class=10, width=128, core_bits=20),
    "greedy": SyntheticConfig(classes=10, per_class=10, width=64, core_bits=12),
}

# case id -> (input, command line without --in, --seed and --out)
CASES = {
    "measure-circles-exact": ("exact", "measure --measures circles:t=0.6"),
    "measure-diversity-circles-exact": ("exact", "measure --measures diversity,circles:t=0.6"),
    "measure-circles-greedy": ("greedy", "measure --measures circles:t=0.6"),
    "measure-diversity-circles-greedy": ("greedy", "measure --measures diversity,circles:t=0.6"),
    "measure-modes": (
        "exact",
        "measure --measures circles:t=0.5,mode=greedy,restarts=3,circles:t=0.5,mode=exact",
    ),
    "compare-exact": ("exact", "compare --repeats 3 --measures richness,circles:t=0.6"),
    "compare-greedy": ("greedy", "compare --repeats 3 --measures diversity,circles:t=0.6"),
    "compare-modes": (
        "exact",
        "compare --repeats 3 --measures circles:t=0.5,mode=greedy,circles:t=0.7,restarts=4",
    ),
    "corr-fixed": ("exact", "corr-fixed --n 20 --repeats 20 --runs 2"),
    "corr-fixed-restarts": (
        "greedy",
        "corr-fixed --n 40 --repeats 15 --runs 2 --measures circles:t=0.5,restarts=3,circles:t=0.7",
    ),
    "corr-growing": ("exact", "corr-growing --n 25 --runs 2"),
    "corr-growing-most-similar": ("greedy", "corr-growing --n 40 --runs 2 --bias most-similar"),
    "sweep-t-fixed": ("greedy", "sweep-t --n 30 --repeats 15 --runs 2 --t-grid 0.0,0.5,0.7"),
    "sweep-t-growing": ("exact", "sweep-t --protocol growing --n 25 --runs 2 --t-grid 0.3,0.6"),
    "axiom-check": (None, "axiom-check --trials 150"),
}

# Recorded before the packing policy was one object.
PINNED_CLI_DIGESTS = {
    ("measure-circles-exact", 0): "a1d5b28a0a73a82906d3c8f59fb5a649426e2dbf7639502c9927f8766c0c8d8d",
    ("measure-circles-exact", 1): "291e927a667105a9687149093e4bb68f3fdf4973e9f41a66e8aa06b2308221f1",
    ("measure-circles-exact", 2): "ee47e508af4c036ee620f445bd4ce8d39aa66df446e668eeb3d792a47d31b8f0",
    ("measure-diversity-circles-exact", 0): "d7908faf636bf0643cedc157f94da05a4859de836541408494684b0702504332",
    ("measure-diversity-circles-exact", 1): "3986a728ab2e6d456aa857ab3d21308fefe0adf317f410aca95524f8d0360fff",
    ("measure-diversity-circles-exact", 2): "36cea013c1e4185b1200d63215938dfeb478c43e44f02281fb170b62af440498",
    ("measure-circles-greedy", 0): "8f45cdba77c1781f890755fa8ea518a2bd5463e509c0b203ae3c9881af55bc59",
    ("measure-circles-greedy", 1): "eed46b9f279eb0fd7c23f6cd0f10a62d14e44ccb5883bf39fcc74815b8121000",
    ("measure-circles-greedy", 2): "4631acbd47d4781cdca2b580037ae32cf1ce09ffe6c94710416b9192786451d3",
    ("measure-diversity-circles-greedy", 0): "18376cf8d144ef367959ad71eb9d45801592cb0b38f703f50370af54f68b231b",
    ("measure-diversity-circles-greedy", 1): "5f8a79896de2e3d16db2df6d4830782f9a3bcf7a4d215272a2bf429edf939c2d",
    ("measure-diversity-circles-greedy", 2): "68fe23c12d29e25cbe7b40d39a56d2710582e4b11b865d9ded99472753d16ac7",
    ("measure-modes", 0): "70873c66e1f30c63909ced878727b0674726c7ad0dc63896dac8d54b0442c934",
    ("measure-modes", 1): "58004d2284c567dbb181990f8b0d229afc7de05a7e76184f0784400bb022a8f8",
    ("measure-modes", 2): "05d1deefbc0a4b4e2cbb513fdaa855001e48c7408c6fc193acb8bfbe531bc3af",
    ("compare-exact", 0): "c467e07f8796db417029069bce78a750df734cfd8a3da8aacd0eeff379cc2727",
    ("compare-exact", 1): "ccff78716f8e032c26a8af3cc1d07eb908c3f21ba90f20b7b2d6e7406858439b",
    ("compare-exact", 2): "803aa86b25c5350512d8599773818352face5a12fb006b2f3b7f9c0fc2ef5333",
    ("compare-greedy", 0): "c0561004638730d270099ece0d471cefba19592db07c6eee4a1fc0e2b7d6b059",
    ("compare-greedy", 1): "9b3403eafc5f356798bf30cd443d89f4ef6bd88c653b2ab31bf29cbb41633404",
    ("compare-greedy", 2): "e928b688c0925b6a7152f9161b2d46e170c8fd8f10c208ccbaab5d440129d9db",
    ("compare-modes", 0): "99afda9d6c3199bc58015847d1dd97bee7dd2ed9d401db18102f24a593ebf104",
    ("compare-modes", 1): "18dab6675d79c08028a177b50ee4f4f31beaf685f5f8c276294e33066a7b0d04",
    ("compare-modes", 2): "12d132995d8997f539a1733fb355828cd4b4a6e38442a8a7810c0e8a58bee467",
    ("corr-fixed", 0): "11437621242cfb1c40ea7931e1be55c572562ee5d12f41d4340e04f1d3a7cd6e",
    ("corr-fixed", 1): "23376e66c630014aa63207772820f89a7249e2043da207a4ad029fcc786e890b",
    ("corr-fixed", 2): "8fd878b027f8b84971add8bf334a8f6b4aee3dd0f7b0e5a6b541fffbe940e260",
    ("corr-fixed-restarts", 0): "7e81c930698f76c674b553ffb0c440d11ee52038dca49c6c419485705aa8d4ce",
    ("corr-fixed-restarts", 1): "70adf339b93772e382550c56ac14041b49351b75b0d384c5fdf8a4c5c2abe71f",
    ("corr-fixed-restarts", 2): "ab887411d8e0e9958fd4db6c1657485207e2f057631f270e6b7644613403e7bf",
    ("corr-growing", 0): "402b073f277efaa3d375ec7a166695d1df8ff7303ca0a6bcbc4e6d0cb783b773",
    ("corr-growing", 1): "75321e08e7f36d3c134333027d61c558a8f47ab0597044e9a64262c415d1417f",
    ("corr-growing", 2): "545429a81dc3a65968cb8d3fc3415b75feac78afe5f1f6427b349c4580a28995",
    ("corr-growing-most-similar", 0): "337ed8731f1d9919b9d3bf7f45c0c8f682312cca1d9000f3c192097de24aece3",
    ("corr-growing-most-similar", 1): "778ebde524f544ecde5d46011a379b5c9c94a75ccd79c2581159663b49c12c02",
    ("corr-growing-most-similar", 2): "9f10c703f5249ab7efb38f5182c9ecf4e45a7e1f2efdc156c4bb953bf9b1bdcc",
    ("sweep-t-fixed", 0): "95e4a92aa158fb826cb3e97d0f15abf06f4703809d514fb3b8d909adc6313b79",
    ("sweep-t-fixed", 1): "d21f04b2fcbdb398239e6e61bbed76fe04a657f6161070742cc4ab8a77f4ae39",
    ("sweep-t-fixed", 2): "aa5ab46c31043d9aadb8f6681927beb9c7bdf5376a04b9880d75f8714111f983",
    ("sweep-t-growing", 0): "48c9fa2c22d6b021334d7d48e2f8fe5e1edd7218aad26b20ffaca5b97ee431e5",
    ("sweep-t-growing", 1): "00bd049d769345cf67f11cdd77b9178a2535a741eb2b96bf95d705f04bad5672",
    ("sweep-t-growing", 2): "3b46f3c972d3809f9f9060110ed724d38a69278400bb86c92b8f6c301b03ee29",
    ("axiom-check", 0): "bbfeb04151e77b6aac27c3b2e65f25eae41ffee379850d1771b135c528d1fa35",
    ("axiom-check", 1): "41d37a92c4d615bbef84158f9eb54bef60053a42e0769417f871ac27bc23a2f3",
    ("axiom-check", 2): "6bea2ea674ed64425cddbd0604ec81271111743c2a083630b2e449d2f473c41d",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("pinned")
    paths = {}
    for name, config in INPUTS.items():
        paths[name] = root / f"{name}.tsv"
        write_dataset(generate_synthetic(config, seed=3 if name == "exact" else 1), paths[name])
    return paths


def cli_digest(command: str, path: Path | None, seed: int, out: Path) -> str:
    args = command.split()
    if path is not None:
        args[1:1] = ["--in", str(path)]
    assert main([*args, "--seed", str(seed), "--out", str(out)]) in (0, 1)
    text = render_json(strip_volatile(json.loads(out.read_text())))
    if path is not None:
        text = text.replace(str(path), "<in>")
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", list(CASES))
def test_cli_output_pinned(case, seed, inputs, tmp_path):
    data, command = CASES[case]
    path = None if data is None else inputs[data]
    assert cli_digest(command, path, seed, tmp_path / "out.json") == PINNED_CLI_DIGESTS[case, seed]
