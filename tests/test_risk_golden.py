"""Golden pins of the risk and characterization outputs, per catalog serial.

Every digest below is the sha256 of one command's stdout or one served
payload, recorded from the code as it stood before risk and `Campaign`
moved onto engine work units.  They pin the outputs themselves: any
change in a count, a time, a victim distance or a table cell, for any
module, fails here.
"""

from __future__ import annotations

import hashlib
import json

from repro.chip import CATALOG
from repro.cli import main
from repro.serve.protocol import RiskRequest
from repro.serve.scheduler import RequestScheduler

SERIALS = tuple(sorted(CATALOG))

#: Served `/v1/risk` bodies: the default request and a small geometry.
RISK_BODIES = {
    "default": {},
    "small": {"window_ms": 512, "subarrays": 2, "rows": 128, "columns": 256},
}

#: `repro risk SERIAL --temperature T` runs at each of these temperatures.
RISK_TEMPERATURES = (85.0, 45.0)

RISK_STDOUT_DIGESTS: dict[float, dict[str, str]] = {
    85.0: {
        "H0": "f9c93db526502c18290b50ce5666b2d7b820a62bd77f28d3a38c2446eb580309",
        "H1": "bddf604cf18f1540ce73ec3d5ecc514c7702a54a1d864f55da562bc9a919895e",
        "H2": "bbde71f2e246a89166672929e807a8b97ff379a6306150639eb11916185881db",
        "H3": "b7bc0497ca2d15e1e5ce8d7f4d746f4e7ac23b1edda326d7b47c9a427ed0de69",
        "H4": "18d65199e0ba7fc93661d02cf852b639748109ae0fb9b68298e3d1a7ce927e5f",
        "H5": "f987f8862cbdef2857964b154207202191ae06ddc48e56a1af4be74a71fdbb1d",
        "H6": "be7c11543ffd52bf33b84f0d4ec0052c044240dfe576db1237e24016ce2c1296",
        "H7": "a21a2c61a9ba664591c6f0fd03ed76d49016b066474d9533360a5c7eefa506cc",
        "H8": "f3c991760b4745a5d863a162797b0e3821e36c37f524cf3f8029853ba8c7a27a",
        "H9": "ce870a086ca2e81caa9e7c85ae34ee1a5e12ac3d7b28efd1f508dadb92f8f849",
        "HBM0": "d25b7286ea06a06f1a88bad9e024c599cce2c39a7333db90e4f5c3132750ec21",
        "M0": "6474e41c07985d514a2b77eb14785d3fd0309e9557733019cd39f51ff9294990",
        "M1": "62234f1f8ddc39f38d7871863371e017e2f669698edb9bd98319afb315330afd",
        "M10": "1938e818cd2755f30e9f80671e63e34098bf10a99edb533fdea7dd912b5f03d4",
        "M11": "1432b829d617716d974b4b3b82b4d800e982dd3a4e07dfc86a768f2ea6278b50",
        "M2": "ac050b4d51b4e0e5be73935d4909fbc08ef58ac7666c7480221a88f21cc021d7",
        "M3": "cec2babecd07312313d55956359cf3b37132f316787fde3c3fc9a5d4e8f3b98c",
        "M4": "09610466e2bfd4d63ae70de3cd4fecf0de5bab233e9bf91d8c6df95c9394b80f",
        "M5": "5b269722e56a4021cedca832aaf8394eb2360a3596d2e8abf96632c7901dadd5",
        "M6": "6b285f85c9c3208904d53a394301849d8b5f89ffb9e9d987103d97f7c83d5bc6",
        "M7": "ad646e1018f808286e33379fcec76afab27482e9ccfb1dfe5178f01cf202c1c5",
        "M8": "41f272e68e97253d57c63f079bc8e2d650f332db2409e7562b5afcb296a463a7",
        "M9": "cf4882a65b45060f671e8fd278970cb8128ad9e29d758fe99fa5a25f914897c6",
        "S0": "b86b5c4c09650097d47b6ebe6f717b7cd139221b95e746db8daa2a483a6be1e6",
        "S1": "b05d084790798f542d43d15eb7dfda88b6ecaf4fac4434134df7a819f7e35376",
        "S2": "efb5752f90bd9410f14d2c9f3147ef4c2b15c3495f015924b032d0ae793f5957",
        "S3": "541c3c9326b63cb91a9554d241473216ba4e1d55e80a0a7c1c699b524701a870",
        "S4": "e7d8cdd5e4cada8a6c8d2075b25562a67d3a9039d914d9d22261662387c054ac",
        "S5": "ea6318b9b8607e6ffa1537dba6ba9391b41a17125e061cae1ac3b92c4b4d4ef7",
    },
    45.0: {
        "H0": "4cc23e77b4fcbd3c7ba57e5d27f2fcaa49514ccbffd4b2849c7dcc1b7e268a6e",
        "H1": "2229015d8fc930afa50ecc4076649dfa56766f066c69f87dbae89b77b9570b21",
        "H2": "0fb6ace19eb42dd0c7c8e2cb844f7d83eb9e0c77a853aff92a6306a1e92860b6",
        "H3": "2c7d5f27399c19d32a2d95708ff5941233f80bb92b405182b0a5f4a2411b5f40",
        "H4": "346d464f928a818eee593c7086733a6c73d700e4cd7b6b2684b83ec75dfd6c94",
        "H5": "2c35290e17df8d6c458832bc658402b7c16cb6663d5143a3e714df894b720c65",
        "H6": "08ed4afe5d8bd2380b36899610195af66151aef45b871bbc646af6e3565e18ac",
        "H7": "7e118ae134aa8aea742d2e351c8779e22dd7d7d2dbd9157b2709552c29f55ecf",
        "H8": "5b8a1933d7b15f913b6619e5549e4641f29f410b3a8970df3cd3009718ed48cc",
        "H9": "a5f1ff2d7e5509437c2bc4ab4cc9ba8e045e70a9f010500be352323a1a0355aa",
        "HBM0": "9d6611fc499f934c676cb6a8f42b0df324b1222c35a1242193e7310ded2f0d06",
        "M0": "8f5dff86b4c8cf3fbcf7d2fefacff0107c9a324319da04c9323f26a8a8265e81",
        "M1": "d386b0500835c92d3d33bd5d9b0d5ed7b7583af60350889e76a710db756de1fa",
        "M10": "a80a8ec494a83c3210e15a669f2938d28689d526d697116d7155da67538c27e3",
        "M11": "ef0b64986943b2323fdc394e602bdde219bfba7abaf024dfab56a3e5d8382e38",
        "M2": "51cedc14f6f790cfa635346bf311ffd5a7c2f6a29ff386c426393c6525945b6a",
        "M3": "badfba6456e018351855fef1118d27b42fb60095f62401d280562a04489688a8",
        "M4": "0f460b1f8ebb3169815b4656f85325cd17dce1c4e89835655ec86f62053f3daf",
        "M5": "35e272d110471b465f5cd45f9d40804aa63607db14b7f1e402fbb741b5c741a8",
        "M6": "4fc73e9973fad95a082305dcfacfde7892c4a53e3fe9d496fcb58ee9b45b4a61",
        "M7": "92ea6592760ae5ea43701a3d9e36e72aed00c5131b208a52288e2c8d7c22453e",
        "M8": "f8c456ab16fcce42276081105571f7f0f87372cbe651a1fd4b2619b30b787719",
        "M9": "260e9645029b53aa34a535875137f34da1add5fbb00ea91a5e41693038f60d97",
        "S0": "bf6e08ee1e3334f207cb69226bc999d1c8a3e2110b730a039342e6e4d97d4893",
        "S1": "af260fff523c0f5d76d84eed471dc89fa748e2b69241bbcdf7510ad1150c712e",
        "S2": "6aac175efdae98a78f3d5159aaeed5c3eb302142d764e20330b386705f52915e",
        "S3": "43c6d26bdc888b7d275f0fad9ff6c1e50eeda3721cc5bec769780f1ed77c87fc",
        "S4": "f66b7074ca38a05aaea8819b10df5607b48c8c18e4443c3774ad07cd8f79af06",
        "S5": "f83e9faeb6087fd21e8c565d58b176f597753ae48b31d6f77da21085eacd78b2",
    },
}

CHARACTERIZE_STDOUT_DIGESTS: dict[str, str] = {
    "H0": "a960486b428403835c54df2094f1544c5177cb468f5d0a4ec586f8465088af3a",
    "H1": "5b54c7068fca6479e34b4e63d45a03717940e565c9fb530e642c9fa16b6b4d2d",
    "H2": "b40e39822511f87875657780a01f23dbe503e08259e2d854e1b214d9afb2b5e5",
    "H3": "605af03dc6eff90334f372a20b38cac22983211c8c56b65b9e92eab25568efa8",
    "H4": "dbaa6d81cea7e5b8c7dc50a1004760a8f5210eb85fe944cf8f439650acc478d7",
    "H5": "25ce3759b8637f50543fe78fd296f20867e15119ed6359a8eb486ff1ad637185",
    "H6": "ee02b11a77b5dd0bef9a4df7fbcc58873d26097f53c0fcf9df6e2172dd6cc6f3",
    "H7": "0717cf7b41fd41cab12a04de3b1028f22f7496e2a103471b708d5037b3d7fcc9",
    "H8": "e5be366c96005e364eeef795527fcb06a15759bffdd14081103e8b5f2b214f79",
    "H9": "aa7e93e9a68ea9461177a354c5aeea2a657f2a1c24ca41961e0b35297a8fbbe3",
    "HBM0": "d3c91e919b275efa137aee7d6d3813d05a98be3e5462567b12cdf0d3f61c23d5",
    "M0": "0e77cd871da0834d44aceb24ad265052f636f71b5c2f91fb896a12f3107b465a",
    "M1": "fa43270a21e84a2850d71bfd07dd6d8507da57de8da69a3fb80f46d090bc2097",
    "M10": "43ef13993ef2c03ba0bfdccddd07a89c2d38b15e42b6b82e835dfd1c7fc24f14",
    "M11": "e354e0b30845ede0d6e93339ff856dd7633848799e53bafc2eef39b1ea53c4e5",
    "M2": "744dc25b69c2d2b5437c9c8d4adec906b0b1d2e0253469cecf3665a0b3fc2df8",
    "M3": "f286e66602ede1bd151fa520eb37ae0dd49a17a31524c3b23ae0619c1e4ac12f",
    "M4": "228016298c060df953dd8466bc3789d7b50754c06049bb70abb417146cf760fc",
    "M5": "c14f72b41062f221f12882ea24281ca88c76a93dfdaff2162a6682af2a3a89f6",
    "M6": "0fbb788997a451ad9bcd3f102fcf8b194767800a4b5e1d9a7e386f46b98aae2f",
    "M7": "989f572cf5f2cb803769858240b96d16e05a832dd8b966371cb5b281d88074c3",
    "M8": "41973dbfc82aee88866886a1c223206b847508bee3fe043963ff5e77f3b44e2a",
    "M9": "182e457e93628a1cb7d260b5bb149ad305839824d7831120b7057550bc3a8004",
    "S0": "b43202245ce56d161defb503c15ffe9c18ae8f3d72a1750a25b5f73bcba9f507",
    "S1": "ddf751e9ff17058c3f0a6a3f80e80dbb63ec687106e7324b50b103f351133538",
    "S2": "0cb47a0735bdf61b4f08634e83b2a1abeee49ffc35cec4a96c6e756686106075",
    "S3": "ddeb36d2140378b7d0491b8f84bb55cf7f0b1e63149029ac9859b738cde55bc0",
    "S4": "6971ae31cb7d7919b36b45ac839069c305d2eab0286fadf9d5aec5df2b85a960",
    "S5": "3843a54aa67b5b6b57ddaaabb7a1f7042ab4c2c222b06829bba4a1bbb7e57059",
}

SERVED_RISK_DIGESTS: dict[str, dict[str, str]] = {
    "default": {
        "H0": "3147a099559f0608d31e2cce87f3ba99cd907a98a77eefe9475bf59b87ac0001",
        "H1": "261b3f06f15c554b0164b975b71c896e82cd1a21d53c0afd95d99541a368b641",
        "H2": "e4519b94c70c6538fdbe45ee4257c342c92fccfd0c449dafe30d6d2dfbc7e1a9",
        "H3": "5000edbad6b1a63b7c71a882381dc9035d6c6a8cf3ed83327e8111ff348cce77",
        "H4": "fa7010069b80e442bf69099033dcbdd5d55e70d556abcb5093198d76f72c860c",
        "H5": "43bc5a0b649c9114a46185849ad3b211678c4b45f2fa1600c2a7dd483bb80643",
        "H6": "e289d6a4c3870a8f4abdc909ce40f918e5306cb0f0b41fcec099f769bb7d4c4c",
        "H7": "874410f8bc5a7fd995d8ac94e7680a460b1ce54411471a7970c9bd9245d59627",
        "H8": "50205799940d6afbe3053ffe45e8b7aa645f3df75097cc027c39dadf1c4e101b",
        "H9": "d218ccb65fdedc9b928a8dd83532200ce438d871ae4ee4abf1c595b0863844aa",
        "HBM0": "e37721acbe803478ba74da9094a3e892bf5ef44dc9c8a227692dd5f07f891052",
        "M0": "55b46f64ea25119a2b7b21f65ef45ea30ccf8af75604ccf2297ee669151c2c35",
        "M1": "34935bb5704d3ec85a93c70c910492bebcbf1a1808588c2f1c76d3a89819ee6d",
        "M10": "5d2f82cd7d69c9287f92bf22b5029094c4a32aba265e596edd6a21ff4dd1bebe",
        "M11": "271e45768eac1c53879a4f4082ad4747c2834d88342ba4cf4711dcec2158a915",
        "M2": "23496c4239724da54e6f7957784449438e2998c34e1a2164fa83a90f1ca3b2dd",
        "M3": "f1a7c73008c75fbd34890e57f421ecbf607ee873523df730d6e7f6fe23b4e909",
        "M4": "b8ed528a453b6b80cc38eed160331da05d5eb89297700fea1e3ea89f30c61b4e",
        "M5": "008cf5b861c26cd412a6287d88a836e4341e3bd1dae87b72bfc4273b19859ab2",
        "M6": "c74a41d00c56f1468fbbb5052e36e3bb32d6ab8a93781aba0e7ccfe220618b0d",
        "M7": "866fc3bbf0472ed6cfbe275b863cc221a7d74d6462e6af87bb240e9fc0b37894",
        "M8": "05f1fe0a3f7b82fa815a387636201c9ddbe4a27f8bfffe7746049352a4b88e41",
        "M9": "5e5f68d3d333698252cd0199d422442e9b33e3d1c922c8ca28ce7d7237c0ecf9",
        "S0": "11a5d9ee38494ae2d80398b661b91c26811f7166d446b0b87e98c743fc0dab2a",
        "S1": "dda29b1320e77dcefaf557eac85a614fa288f3043f94383702f864430a4324ee",
        "S2": "89c1666ce077b207bc2aae77d29865d7fe868143c5f2dc26e6ed86e19cee3ae7",
        "S3": "be70cedd64e041eef6e1d33669d1bc6b5fe02dfe1b7f1e9651f17264f1d15c0c",
        "S4": "d893230ffdddd0e7b14750bef10faf10b4c2070a40b5a2ca189bcecc96a575b9",
        "S5": "d0445df4505f985986a98ef3b3ccac13d0c35b247a4289ab8428a532dec04351",
    },
    "small": {
        "H0": "38a92e24b5e9061f4983627ebc8bca5810a98043833e95f9300acdfdee4757fd",
        "H1": "a1825ab6a72d1357a2e8852d2ce5c5389fd1711ce657aaaf1f790ec7ba3d7f3a",
        "H2": "92c9f8169c2a5345cd354695dc421b44bd7d2bf09c656f675f9960458a6f6893",
        "H3": "75774a9b741192b64ec437649ad9d17d452e9817c0e089d62661fd0954635478",
        "H4": "52c61afa62a8e5200585a0039f8403fee263a3244500a1ba40788d11f26a11d8",
        "H5": "f1ce2c10c1d0e3f6260c83a6521b7944afc9a8161f8b3cfa2181e5c182388850",
        "H6": "4f241657ff0cd2523ddca40157dcf737737c13a0b111e21acb6bd9aaf453e925",
        "H7": "251092606f2a9e22d82058e8ec9c55661d236c27b41c4f420c2b2bfd1c353992",
        "H8": "2af4f1d22cf0c87ffee1687c259221e78d5ff3706c651a1e9a839f4395b4b427",
        "H9": "37e3e8f58c448ab33f91c31981ab4d025be2c9ee75529a75ff3b5dd2c288060e",
        "HBM0": "88b6cd44181d123689e2033f338329a4122cd3f09df688a1a025e96bb8036846",
        "M0": "d0aa326fe7838006f3250ff90c342c6311fc49f06b5d681a83cb3a62870a23d5",
        "M1": "a2038ad8fd8fb1956bc46341e770e595dc1442b2755cae4b4271624573a4ffd9",
        "M10": "51056ad6d22450d0a29ee5f7921f0c505c9781db4776dc91d8b30b36d81ce7f9",
        "M11": "0475f6b1e4a94db1360dd7eefc41769a03928bc291ac08e6e02fe5280f81d2b5",
        "M2": "322cc241ebddda51007ef29988e23c719336add096c8c1b6aa6fd536b87f4a47",
        "M3": "f81f3e5a0e8170fe203bfdc7a1e419b88bbe2aed9e03231d96d23037b99be795",
        "M4": "236ae4284c3cd45fd350ad2dcfa26bd969ff945e2b55a030b0f5e0dee236f8e4",
        "M5": "a5437c04f4e301c250e29a79dc018e0f19c6808fcd642c05ae6545ab5479318e",
        "M6": "ae503089809840b9f194182ee559d023b9d15f961ddaf1a615278851c30c9c03",
        "M7": "a15a6f513cd80760437082244441697839532646e0195f2f9971eb138463cae6",
        "M8": "355b7308fa2053b1dc6a3f3d73db9956b40e4a387bc8c468b6dd4d38b115b35a",
        "M9": "eeb1565e4a414ef4c5ccfab0f521512f1f9536ccd1a0dd00087ae39b4b374109",
        "S0": "5949d8fa099883bf2d295c03326cf6e3800acf05258a8b3bb22a752311647ef1",
        "S1": "e7066cfddd9a9c1dece826f77562eb54a288ac6fd92f0030cd46c085f222cd6f",
        "S2": "da82673a2f54fa4bae59440eea359f5d2f077a4a3c7c657b00b3cd0fb4baf31b",
        "S3": "99258990efec62919196bbe70d1686606cc4fdaea98b1adeaeceafc42443e861",
        "S4": "e4a8ecabbd27a9396a6b6515f7592c5079dd210b7e767474574784371f858fcf",
        "S5": "e9a314a990c5a660eeeb20c74b42325134f245d54c4032d16361fd5481effdb8",
    },
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli_digest(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return sha256(capsys.readouterr().out)


def risk_stdout_digests(capsys) -> dict[float, dict[str, str]]:
    return {
        temperature: {
            serial: cli_digest(
                capsys, "risk", serial, "--temperature", f"{temperature:g}"
            )
            for serial in SERIALS
        }
        for temperature in RISK_TEMPERATURES
    }


def characterize_stdout_digests(capsys) -> dict[str, str]:
    return {serial: cli_digest(capsys, "characterize", serial) for serial in SERIALS}


def served_risk_digests() -> dict[str, dict[str, str]]:
    scheduler = RequestScheduler()
    try:
        return {
            name: {
                serial: sha256(
                    json.dumps(
                        [
                            scheduler._execute_risk(
                                RiskRequest.from_json({"serial": serial, **body})
                            )
                        ],
                        sort_keys=True,
                    )
                )
                for serial in SERIALS
            }
            for name, body in RISK_BODIES.items()
        }
    finally:
        scheduler._executor.shutdown(wait=True)


def test_risk_stdout_is_pinned(capsys):
    assert risk_stdout_digests(capsys) == RISK_STDOUT_DIGESTS


def test_characterize_stdout_is_pinned(capsys):
    assert characterize_stdout_digests(capsys) == CHARACTERIZE_STDOUT_DIGESTS


def test_served_risk_is_pinned():
    assert served_risk_digests() == SERVED_RISK_DIGESTS
