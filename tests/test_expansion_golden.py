"""Golden digests of the expansion probes.

Each case builds one warm network view and hashes what the probes
report on it: ``(min_ratio.hex(), witness_size, sorted witness,
candidates_checked)`` of :func:`adversarial_expansion_upper_bound`, of
:func:`large_set_expansion_probe` and of two consecutive
:meth:`ProbeCache.probe` windows; the greedy phase on its own (the
minimum plus the sorted ``seen`` keys and ``checked`` count it leaves);
and the raw :class:`BallRecorder` stream of the ball phase (roots, kept
radii and the five entry arrays, in recording order).

The grid covers three views — streaming SDGR with ``d = 8``, streaming
SDG (``policy="none"``, which leaves isolated nodes) and Poisson PDG —
five size windows and two seeds.  The digests were computed with the
per-candidate ball scoring loop and the per-absorption boundary
regather of the greedy phase, so they pin the recorded scoring path, the
flat-key BFS shell step and the incremental greedy queue to them.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.analysis import expansion
from repro.analysis.expansion import (
    BallRecorder,
    _CSRProbe,
    adversarial_expansion_upper_bound,
    large_set_expansion_probe,
)
from repro.analysis.incremental import ProbeCache
from repro.models import PDG, SDG, SDGR

N = 240
SEEDS = (1, 2)
WINDOWS = ((1, 32), (1, None), (5, 60), (1, 1), (20, 40))
RANDOM_SETS = 25
VIEWS = {
    "sdgr-d8": lambda seed: SDGR(n=N, d=8, seed=seed, backend="array"),
    "sdg-none-d2": lambda seed: SDG(n=N, d=2, seed=seed, backend="array"),
    "pdg-d3": lambda seed: PDG(n=N, d=3, seed=seed, backend="array"),
}
KINDS = ("adversarial", "large_set", "cache", "greedy", "recorder")


def _probe_text(probe) -> str:
    return repr(
        (
            probe.min_ratio.hex(),
            probe.witness_size,
            sorted(probe.witness),
            probe.candidates_checked,
        )
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _recorder_digest(recorder: BallRecorder) -> str:
    digest = hashlib.sha256()
    roots, radii = recorder.roots()
    for array in (roots, radii, *recorder.entries()):
        digest.update(repr(array.dtype.str).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _bounds(view, window) -> tuple[int, int]:
    lo, hi = window
    hi = view.n // 2 if hi is None else min(hi, view.n // 2)
    return lo, hi


def compute(view_name: str, window, seed: int) -> dict[str, str]:
    """kind -> digest for one (view, window, seed) case."""
    net = VIEWS[view_name](seed)
    net.run_rounds(6)
    lo, hi = window
    cache = ProbeCache(
        net.state, num_random_sets=RANDOM_SETS, min_size=lo, max_size=hi
    )
    view = net.state.csr_view(net.now)
    out = {
        "adversarial": _sha(
            _probe_text(
                adversarial_expansion_upper_bound(
                    view,
                    seed=seed,
                    num_random_sets=RANDOM_SETS,
                    min_size=lo,
                    max_size=hi,
                )
            )
        ),
        "large_set": _sha(
            _probe_text(
                large_set_expansion_probe(
                    view, lo, hi, seed=seed, num_random_sets=RANDOM_SETS
                )
            )
        ),
    }
    greedy = _CSRProbe(view, *_bounds(view, window))
    greedy.greedy_phase(8)
    out["greedy"] = _sha(
        repr(
            (
                greedy.best.ratio.hex(),
                greedy.best.size,
                tuple(greedy.best.members),
                sorted(greedy.seen),
                greedy.checked,
            )
        )
    )
    recorder = BallRecorder()
    _CSRProbe(view, *_bounds(view, window), recorder=recorder).ball_phase()
    out["recorder"] = _recorder_digest(recorder)
    first = cache.probe(view, seed=seed)
    net.run_rounds(4)
    second = cache.probe(net.state.csr_view(net.now), seed=seed)
    out["cache"] = _sha(_probe_text(first) + _probe_text(second))
    return out


#: (view, window, seed) -> {kind: sha256}
GOLDEN = {
    ('sdgr-d8', (1, 32), 1): {
        "adversarial": "40b30f9f54fa5056ccd23dea4fdfb419d58c609ca33b35d66ff07de203a87041",
        "large_set": "b9dcbbb48ad6bbb6721810e852732a5f568080cf63453ddc6ee86d00ae33e823",
        "cache": "ec6e41d571a7ea62ca6a7df1d9de0b14261727ebd83a4e5949b1fc29412a8a85",
        "greedy": "2cf4f12f1391fd5d7c5b434eb80737c79d8c17b082cdb5dd832b64d09c80f0e3",
        "recorder": "27ee5918b7563644c6d7aa8f90fc7229dbd6424f337564c44afd49dfdcd31a60",
    },
    ('sdgr-d8', (1, 32), 2): {
        "adversarial": "750edacd416aa589fc09effe849ed17fd47d54e5a00bf08d9a7848760f5cd314",
        "large_set": "7824a519c514acb43701f9f1b4ef996e1081e7996619cb13ac42e8a308930436",
        "cache": "b35cf31d8b5e05b79f6edc1a385fdb864469e9831ebb399a0f6582a15b909dff",
        "greedy": "7e146086eaeb123075c5d73e5e8174fa1e2a919e2ae67ae33275858d9e26a67f",
        "recorder": "717e9b5ffd9f371400646d29338c911fd384d71846d184a657e095377f2135d9",
    },
    ('sdgr-d8', (1, None), 1): {
        "adversarial": "4abdb2429bd482f63d236b6faceb1e5c16e2922a26fc1cb573da7512af3115e0",
        "large_set": "71ed4689722adce0b9446c3261639ba4491df3c61258b92166225bd6354fcd95",
        "cache": "e082a6f99b87e8fdaa83bd6650b67aade60fb2fdb4323e1fd9ba49278be7b63a",
        "greedy": "1f9d1172b306b8c6586eecf46edac779c9fff678d947ad809a5efd04c166b8c3",
        "recorder": "f98d4942747a4795070a16b079b6d42fa8f6a2604145fd6d30bece257602699a",
    },
    ('sdgr-d8', (1, None), 2): {
        "adversarial": "1369bf23868f9b83dc3f17d707c269126d61a5cfdef3beb51625b03e90fadcfa",
        "large_set": "ad8e861d7f6492e59613b086faf25b27d2f2481d4981c0b65a173f987870d813",
        "cache": "718969acd00ac61773005741a9f008ea3ef05902cffa59be0f333ab8fd8aed8f",
        "greedy": "62e987b405352e0627972e77ed4224f94f553152412f0f7b291051a8dd899c3e",
        "recorder": "af33942ea51b9288d119a6f0884599fd5e77283d58c6dbefef4b8dc7f0dc785a",
    },
    ('sdgr-d8', (5, 60), 1): {
        "adversarial": "b2f0af72f6cf9c84edac4625a5b3dbede665fa38df86bc42b8c1b987dd7996e0",
        "large_set": "b19b5a374862773545e5121de0bb8011f2134b7a2f88d055b09d1097e2ee4b1d",
        "cache": "06e08e204ae50300c6ec37dc8dae95b8ba1d25a1bb08336e70199ba871c55fdc",
        "greedy": "07bfc795c84e7e66d7eb5a5b42da01f7d0b43788af0b830d867fd1a6822f7d76",
        "recorder": "6a510dde359014baff4974275cc290550318fbf9b4d1619352f8ba58138d6ac1",
    },
    ('sdgr-d8', (5, 60), 2): {
        "adversarial": "52913e5573590d1a056485de7a6caedded4d06ac53eec40cefe2f6c56698f302",
        "large_set": "ed01666228ad014da2702dfe861c8c3b8b01ec57330d87d089c6d1df24649deb",
        "cache": "f24ee736f60bdf875d947a4c4c6f7697364e965517bd7053cda15a42a72aa43f",
        "greedy": "215a4857f5b6518c7ec6140e21239e1cf4bfbf0b555f966810e1d6c5fba80864",
        "recorder": "8654b8a2c5080c311db8b505ec089405eaee88deb16194a7487dfa03c1b1c4ab",
    },
    ('sdgr-d8', (1, 1), 1): {
        "adversarial": "805cba1ed75a847b13a69b47cca5f411f847ccb7c88d800b03f3edc033cdf446",
        "large_set": "58021fb9c0f2fdb50b18f647446db4d46c37e6cd6515311ae0960fe21556da49",
        "cache": "5c0d3b26e22cdc130a7393e5abed4ce28f4cba8a3aab174a42955d6e0ad79023",
        "greedy": "465a8c777f5e99694d908661563539049e0488dfead242751f72537d7f7d449a",
        "recorder": "b4fcf12cb66c0f7fb61b4da92aa67e745f3045a8b480918817d1d185f984a2a9",
    },
    ('sdgr-d8', (1, 1), 2): {
        "adversarial": "ad27bc3d01cc676feaa75c559a915991b1a6afb3a9dd76f6aa61ad308d355787",
        "large_set": "ab0be30cf658781963b32e1c397f7cc06fb9eff846ac555c0b0be0513455a83c",
        "cache": "1cef6c399302a3485108a1c7894ad9d7c03c22e0b894a20b186d977bda9f3d82",
        "greedy": "0c29d93e45ef201c33bd326a4a0b6c37380a832d591f17fabf6e54e42754ae93",
        "recorder": "9e8390d484562a4186ebd8bb8eb17f5aebe514b07b26ef5a7ad8c089c9577eb9",
    },
    ('sdgr-d8', (20, 40), 1): {
        "adversarial": "888ced0f6bc84edb94784dd833b34d4734d6fc84d1283faa0b9a3d2861b98862",
        "large_set": "ff082f7b94d4741c8de544647fc6d02e46170d91ff057f8af5b78918b15bdbc0",
        "cache": "98d31c41b52f90d0f5135d348554de5e6b878072f39be61754b219df51c44a26",
        "greedy": "ff9a0d687a9e3d0194ac17dffacfa9e8954e6ab52482d0445992b62a4644ea73",
        "recorder": "9d28b89a0df11bb41d62d165b3e6d0ebbe6df0ce42fefdff84df1fdbf11fdefe",
    },
    ('sdgr-d8', (20, 40), 2): {
        "adversarial": "74735b8f3cd751dd23f83c391c35279ff97fd3617203b6dd25c073479ee243b1",
        "large_set": "ef92a1f3705935b0c460291e36385651743c7a8eb027452fbb2beeafc4c5c509",
        "cache": "40558b157d3e1ad31ca9ebf0fa18c98dd8d5e98bb08f72238a9af01912585b37",
        "greedy": "deba416a9469ec8fbf9a455e9ec0666a3824c314e850c61577806349539d7f5e",
        "recorder": "a42afde56218e9bb9224150334c4ae822ae35c004c522a1d41aa0cd8c730059c",
    },
    ('sdg-none-d2', (1, 32), 1): {
        "adversarial": "2e8ac2726b5b6372d0c6c69e5dc257fe607812615c9e26878006a357a21246ab",
        "large_set": "f37554869b3763a926512477d78fded6440cd68c1be06bf279c4b41399b62df4",
        "cache": "b18cbf6662ee798e992313d2cfd7b56dee34b76fc9dffda548d99c65457e65e4",
        "greedy": "0c60747b28ef01addca7090bf2da120ad145b7ac0ca44947c383c84867bcaa66",
        "recorder": "b1b2ad0f12f613dad55ebdc1add1667cd67fdf89dff6c0bd88792b0e0479e888",
    },
    ('sdg-none-d2', (1, 32), 2): {
        "adversarial": "2d39e459f46320abb22e3890e16bea1b97e706e6f0f4d97340a5c0ec229718ee",
        "large_set": "f0d0f939078b94babd3a02a3c7aca633a615dbc1d0df99263ac4913ce9cb8e4b",
        "cache": "ec1442fa6766174906fb7c802aa85cd0c4f7db7bd83024b2d92c1dc7f94256c0",
        "greedy": "5aae1933cd682d295d1f7f4b815c8337bb3feb3ce44d45b19ace453aef4ebb18",
        "recorder": "d00e9f0e20eed7e15f8764266898495ba7da996c7fda4135b553305f7ee09d33",
    },
    ('sdg-none-d2', (1, None), 1): {
        "adversarial": "0296d93b56640b22200f2b95949ec6dc16e74eb9a6f3db6648848c6406bca68e",
        "large_set": "b9b0cf9b09bb8dd01b75e467343ea7fc088924d101535b3575baf12c2ba08320",
        "cache": "143b9cbe6d3f1dbed188c96ad8cc12d4b011771036be70351e5ce4ebc73e8a15",
        "greedy": "10ca7881cb8db250b624df1236b9afbd2c6d56973fe39544f553f239d1538e67",
        "recorder": "4714ec6f46f89e348761d271a1cbd606cfc848070b89519fd8866198a7113d58",
    },
    ('sdg-none-d2', (1, None), 2): {
        "adversarial": "4360e04484433c3a2b931002402ba7e077ccdb80cdaf93b7a26cc4b355535c82",
        "large_set": "8a4b4d2db13e9f49c5081e5950e3374e9b48b853d05029950ffdad5d6becba8c",
        "cache": "f4b7db7511b0a56638f6d0d99fcbe474f9852187b9f61cbc746e57d556b4d893",
        "greedy": "ded6610c4bb323c427e390638dcd92b9068cd40a96fc42fee03795e84659dc5d",
        "recorder": "65ac9a5b6961c6a22d7ca753f5f2e5d8a315dc5b03b838eb03fb33d64665b5d3",
    },
    ('sdg-none-d2', (5, 60), 1): {
        "adversarial": "f0008d1f04e2eb19736abc42b5b0449d61afc1b883f5cbcd55a31fdd56029adf",
        "large_set": "975444687fc31fe95b1642578dd808000cd0274852ea625ab247aa8299553085",
        "cache": "97ad4dae89213aa26512462542a90149dd5264a95fee089d7ae3f2fad21c8a53",
        "greedy": "e443f0463eb8d34f22302c0a7b7ffdac4586413332cca03691f098e35894b40d",
        "recorder": "9c365db4bd173ba471019bfabdb774128457418d9d36058d28add1a356869c66",
    },
    ('sdg-none-d2', (5, 60), 2): {
        "adversarial": "476919474944f363be4c342dcd91fe41b2be2c57370971b03f71b667c8c50397",
        "large_set": "5d28b8f081b79ef5f570514f1817209e07a9b6fb858401c44fee13a6a97e9006",
        "cache": "fbf2a09b253a73813ee543b346a49318f765e2c117ac96488ea1abf024ab469f",
        "greedy": "db9359fd32cf5cce7606b5dac7436cceca1079ca8d4af51c98982632f6089341",
        "recorder": "039bc5b86cfca38601544d2b0c7b56d99e1ea517fef34eeacc31f69c8b2a3f41",
    },
    ('sdg-none-d2', (1, 1), 1): {
        "adversarial": "88e51b29d22517673a4d54aae0f9fc7136b52bd72f2a1611506d884d47dbb589",
        "large_set": "39603edae422631700f192f3a113850f5d8818444330e292eb2adc273602182f",
        "cache": "bafc1c3f65884e7d20c26957563137091c36dac0409444d8fc4594b846b86e0c",
        "greedy": "f3fbab972a4445a838e0c0a027b63f914d9bf9995ed5c5cd7513a19b6f22f3bc",
        "recorder": "cb9310a2d471e3f603f4c51eba607c3af8df4f1228976cb2eafa35104b1f2a70",
    },
    ('sdg-none-d2', (1, 1), 2): {
        "adversarial": "d708f13173fa759215030e417e109484efce07514c325706b7e16b4b1eb72414",
        "large_set": "c01d2d63296d74be4feb1ce9da0db9c8ca5b199a1d47eb16353d3915bffec756",
        "cache": "199c64078330f12899a051e1342985e8e0edecd06502939dfef0d36fa76b04e8",
        "greedy": "14d8a8ed402920e0438a104968af50ccffdc95654809102b333c8abb5a9cfa9b",
        "recorder": "f54df6f275d9056e651222b6571e798194d60e3670e50c56fe3a0890aa154b75",
    },
    ('sdg-none-d2', (20, 40), 1): {
        "adversarial": "5d6f1b1cf0836d2047d4c7355e856324e8e5b091c75fdeddbfc4862c3d578a7f",
        "large_set": "210277efb81cba169373ccc4e0146b09d2ffb6e5a2f8a728a790cc8f9b77e693",
        "cache": "2179ab8337fa1692a691bd939a854a8677477cfb0c8cb75087bb0d6947d26eb1",
        "greedy": "d7ce0dc5d7d8c725aeff2f122f43248ab733f225138a7538aab40ce1b3dce6e1",
        "recorder": "7478af77104f92c00453aa63dc0784c48a66e7e887213c4b80cb3bd00de1d83d",
    },
    ('sdg-none-d2', (20, 40), 2): {
        "adversarial": "92c77242f2eb47dc0e27974d2a3680c8cc140621355058d0f2a4741e74cc7386",
        "large_set": "a012f0b26c7269e4b095c5983cfd4f8adaa0b615cd36a56e4e03c1682fb95851",
        "cache": "61202a28801dfc3668227e82aa50c6ae82c73cddf682455a7e116932056a4fab",
        "greedy": "dc0d5c0b634f92748b6338cdd4089ea6320e0c9901a077d10d94ff85d14243f9",
        "recorder": "cf3772315a1c65501e7374981fcbe8e8b181e734923dedf279bb034b4a0f5707",
    },
    ('pdg-d3', (1, 32), 1): {
        "adversarial": "fec5b6c5b860951bd225450fb994f264853ec63df3d011817a8ffe5ee75ec5ff",
        "large_set": "5cfd7dced53a6321748d3e5e2e1458d15dbe61932a2c796997dd22ad6fd94800",
        "cache": "2e7a0b73d0720d6673754c2ff1021a6206556e7f9eb12bbe2f3f57c43d65b89c",
        "greedy": "375815749b5e076dc71073c13054cafca5f0c5f6e0248e3aac9d974c05a9452e",
        "recorder": "a1a9aa9a857477dcb8dc92c3806b98800f0409024e8d94b091bef05964de2cc6",
    },
    ('pdg-d3', (1, 32), 2): {
        "adversarial": "eda6c875eb6c1c1fdb16a0559639404cd57cee604e81c63b132e714a8374e7fd",
        "large_set": "b2617ac2ee55425acc6011010ed76989d27a943d27a02c3fb8b9110fafbbd256",
        "cache": "23ff56381628bec4902e74ef05c486df90528bc33269120d7604d0645d744dfe",
        "greedy": "918a01f43adc25f6349941ae8ba42b1b3cc18d751d18c5f09983637f05e8db17",
        "recorder": "47ddaf2ece008ae42f4d46b23ad112177074fa04a382576ca5a5ed19eb5751c2",
    },
    ('pdg-d3', (1, None), 1): {
        "adversarial": "01e4584dd8fa327e90af8780746b9aa8d698c34a72fdab2d780f789749fbd696",
        "large_set": "ecb179d62d140ef496cc3d00a1aa636d0022995e3a41262c679910a1146110f7",
        "cache": "7c0af03ecb018f6f0380b5ad95250dda58dcf2aaabebc967a9efb8dc7e4d3f5d",
        "greedy": "375815749b5e076dc71073c13054cafca5f0c5f6e0248e3aac9d974c05a9452e",
        "recorder": "5142c3b56ddc65718c778768c1d53baa04a460e206c53b4063208dd780434a0b",
    },
    ('pdg-d3', (1, None), 2): {
        "adversarial": "ebd0dc12f594476ce51e52e16038b8179330d580361a89806d9e8be63e6cb8ce",
        "large_set": "4512939d9b8efcafe19bd1f11dae5979771ed0a51036a32c00b4f1f9f58e1077",
        "cache": "0c4d31288c00732eba817fb41a0081b8cb8f8a23672db4983603d7d5561e3376",
        "greedy": "671b432c924f43926d6bff8f60a621f2f652985049fe3c047237bebb874f6bfe",
        "recorder": "30d825f89c12dc6beb283b27485b9bdaa6cd166da2ede452eba43de50f3ec13e",
    },
    ('pdg-d3', (5, 60), 1): {
        "adversarial": "ea02d7a3d813ae763397611c5e4afc0c3f12c2e0a5b315dfb9d2020175befc5f",
        "large_set": "c448085dc663832d9d9725dcdeae0378696b854852a15cbe287f8c28eb096c88",
        "cache": "82f05816224938ef5f8cf77167406af9fa242921e889a60ffe7aad0b9c98abab",
        "greedy": "81bb4a0285e224be70a108d3ceff6f611e601185577eec354fdecb2173f907f6",
        "recorder": "78956f96a84decf84c80f86c6e06e93301373bce14331e34684b14618f34e2b6",
    },
    ('pdg-d3', (5, 60), 2): {
        "adversarial": "b5bfe15229cf66f994a836d191c41be1eca60ecf15873be5fdae3a8a6fb95316",
        "large_set": "e4906075c60de1d9919555a8a79aa39cee8540526f5845588675eeec27176c47",
        "cache": "11470b023e683c2201d09d21e47a3f7ba0439f58b10822bd89740f092e952db5",
        "greedy": "a4f4d61feac64fa44c1f48b9fd0df8861cdb8e01482fcc87b0373ebfbae9b414",
        "recorder": "45d7b2b82ea3f8847bb4e25462ab352d5342bcab7c0d5aaec109677c445245a2",
    },
    ('pdg-d3', (1, 1), 1): {
        "adversarial": "bba594922d6b66fcd8c3d5516e04658f339e233370697d4d7b87ec91fa666f3c",
        "large_set": "d2e90e3362fbdbe008d068f49063aeb3bdb7eb09a3d528945b8cb786944c09c2",
        "cache": "6d14924c55102a0bc58588915593d25663dfa36b1c7142aedc78f674f6c1cbe4",
        "greedy": "375815749b5e076dc71073c13054cafca5f0c5f6e0248e3aac9d974c05a9452e",
        "recorder": "15c86c00b5ec6d61ab8047cddff31a62eb5d533834a8c9e1acf5a18b81c6d939",
    },
    ('pdg-d3', (1, 1), 2): {
        "adversarial": "b66fbaa661daf88df7961f4bacb50758f56970df335947fddf1ca44f901e2abc",
        "large_set": "af9a1d9b974f6c51f7e40758133ce209a2a9017365c6f74aa9f283b7da7a222d",
        "cache": "4aff9e65848413a6c6098414a74b38b0b732f4622aa349eb7ca15e366be6f949",
        "greedy": "55151ae631d87b73b49d282af6ec860cfe02cbbfeb72a8e2a564b312318c571a",
        "recorder": "00ee23f19f93894c5829cd7a098518fbe64a62ed9d8783d3da572028ce600aa3",
    },
    ('pdg-d3', (20, 40), 1): {
        "adversarial": "98cd9463e8ead20099b604d7c74cc33d0f2bdc014b49fcdf4b1d4a2a359fc947",
        "large_set": "a24a99e1ec62035c3e11d8692e381f83fa6f3bf8f4745c901023384f2f43a2ab",
        "cache": "6870b38b54923c0d55ae30d13a53ae6efd48967485c430a1df76f322e097b3a0",
        "greedy": "81bb4a0285e224be70a108d3ceff6f611e601185577eec354fdecb2173f907f6",
        "recorder": "1da16f6d750e8e3e029625806af55e2ed6efe20930c05d8f272def35ef491cd6",
    },
    ('pdg-d3', (20, 40), 2): {
        "adversarial": "5a479d775c757dec643e92403bc3be02eb6affe932b80272f3d12e75b42a93cb",
        "large_set": "20173aa3c08bd71e38e8f2b3b858eef2cfe8eac60339d49972d3dab28d7cc848",
        "cache": "04a7930c840c0bd2b2b2928feaec4016f96511e39a3e6f37aa06e185aae18e94",
        "greedy": "d16d33dbe1c2a2df17f8e1e7e7f49e4366bc695abbd4f46e8808a84c6c2f4b55",
        "recorder": "8b1c3c9ee9dd71a4d5b67b0c91568577e8dab1498019812412492f7fa6ab7674",
    },
}


CASES = [
    (view_name, window, seed)
    for view_name in VIEWS
    for window in WINDOWS
    for seed in SEEDS
]


@pytest.mark.parametrize(
    "view_name,window,seed",
    CASES,
    ids=[f"{v}-{w[0]}-{w[1]}-s{s}" for v, w, s in CASES],
)
def test_probe_digests(view_name, window, seed):
    assert compute(view_name, window, seed) == GOLDEN[(view_name, window, seed)]


def test_grid_covers_isolated_nodes():
    """The no-regeneration view really has isolated nodes to find."""
    net = VIEWS["sdg-none-d2"](SEEDS[0])
    net.run_rounds(6)
    view = net.state.csr_view(net.now)
    assert (view.degrees == 0).any()
    assert adversarial_expansion_upper_bound(
        view, seed=SEEDS[0], num_random_sets=RANDOM_SETS
    ).min_ratio == 0.0


class _FailingRecorder(BallRecorder):
    """Raises on the second radius step it is handed."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def add_entries(self, *arrays) -> None:
        self.calls += 1
        if self.calls == 2:
            raise RuntimeError("recorder failure")
        super().add_entries(*arrays)


class TestBallScratch:
    def test_error_mid_sweep_drops_mask(self):
        view_name, window, seed = "sdgr-d8", (1, 32), SEEDS[0]
        net = VIEWS[view_name](seed)
        net.run_rounds(6)
        view = net.state.csr_view(net.now)
        probe = _CSRProbe(view, *_bounds(view, window), recorder=_FailingRecorder())
        with pytest.raises(RuntimeError, match="recorder failure"):
            probe.ball_phase()
        assert expansion._ball_visited is None
        assert compute(view_name, window, seed) == GOLDEN[(view_name, window, seed)]

    def test_flat_mask_shares_scratch_memory(self):
        flat = expansion._ball_scratch(16, 1000)
        assert flat.ndim == 1 and flat.size == 16 * 1000
        assert np.shares_memory(flat, expansion._ball_visited)
        assert not flat.any()
