"""The benchmark's generated streams, pinned to sha256 digests of their text.

Each case generates one source spec of the four perfbench workloads
(mis-churn, mis-adversarial, flow-match, verified) at workload seeds 1 and 5
and scale 1, and hashes ``serialize_stream(spec.generate())``.  The specs are
written out here rather than imported from ``perfbench``, so this test pins
the generators, not the benchmark's choice of sizes.  A change to the
generators that keeps every stream keeps every digest; the benchmark's
numbers can only be compared across such a change if it does.
"""

import hashlib

import pytest

from dynamis import GenSpec
from dynamis.stream import serialize_stream


def _sub(seed, i):
    return seed * 1000 + i


def _specs(workload, seed):
    """(label, spec) for every source of one workload, in the benchmark's order."""
    if workload == "mis-churn":
        for i in range(2):
            yield f"mixed{i}", GenSpec(
                "random-edges", n=2000, events=5000, seed=_sub(seed, i),
                p_insert=0.7, query_rate=0.1, vertex_rate=0.02,
            )
            yield f"growing{i}", GenSpec(
                "random-edges", n=2000, events=5000, seed=_sub(seed, 100 + i), p_insert=1.0, query_rate=0.1,
            )
    elif workload == "mis-adversarial":
        yield "arbitrary-removal", GenSpec("arbitrary-removal", m=16384, delta=128)
        yield "degree-biased", GenSpec("degree-biased", m=16384)
    elif workload == "flow-match":
        for i in range(14):
            yield f"flow{i}", GenSpec("random-flow", n=100, events=750, seed=_sub(seed, i))
        for i in range(16):
            yield f"match{i}", GenSpec("random-matching", n=60, events=300, seed=_sub(seed, 100 + i))
        for i in range(10):
            yield f"grow-flow{i}", GenSpec(
                "random-flow", n=100, events=1500, seed=_sub(seed, 200 + i), p_insert=1.0
            )
        for i in range(4):
            yield f"grow-match{i}", GenSpec(
                "random-matching", n=100, events=600, seed=_sub(seed, 300 + i), p_insert=1.0
            )
    elif workload == "verified":
        for i in range(2):
            yield f"mis-mixed{i}", GenSpec(
                "random-edges", n=100, events=400, seed=_sub(seed, i),
                p_insert=0.7, query_rate=0.1, vertex_rate=0.02,
            )
            yield f"mis-growing{i}", GenSpec(
                "random-edges", n=100, events=400, seed=_sub(seed, 10 + i), p_insert=1.0, query_rate=0.1,
            )
        for family, algorithm, p_insert, copies, base in (
            ("random-flow", "flow-fd", 0.7, 8, 100),
            ("random-flow", "flow-inc", 1.0, 8, 200),
            ("random-matching", "match-fd", 0.7, 4, 300),
            ("random-matching", "match-inc", 1.0, 4, 400),
        ):
            for i in range(copies):
                yield f"{algorithm}{i}", GenSpec(
                    family, n=60, events=300, seed=_sub(seed, base + i), p_insert=p_insert
                )
    else:
        raise ValueError(workload)


PINNED = {
    ("mis-churn", 1): {
        "mixed0": "1ff2d8a6c75d7b44a793ccdfd859b0de702f89d2842bdab2fb1bb76399e4ff57",
        "growing0": "aab0adcbeffe6ee120355b3e636f3eff42134eb5f992f985ea23dbdb8f490cbe",
        "mixed1": "e4efd107747ee2f9989495daf7735110ae4161481f19ac9b077ef5e81bad0b45",
        "growing1": "bff4dd827d9948743cc14710152c0be03a08e7aa5aa8e8c4cdac814bb00db43f",
    },
    ("mis-churn", 5): {
        "mixed0": "aa81f86215f19838df439bf5dfe599a2d2ed42c7d9eb26aeeda5994c92d5d5cc",
        "growing0": "f2489381b783d27729fe38576d034de77bf4bd49a50c67bb035db39a0053fc15",
        "mixed1": "357e99ec0460a23501b630e82e0498c0a080a2199f73eb37bb88b5a5901c5091",
        "growing1": "d4b496e2bf5a3f46dac7b64ff44193a5f82f3fce0f515b059562e6c92e93253c",
    },
    ("mis-adversarial", 1): {
        "arbitrary-removal": "6dc3d8228e1a82be0d5d248fa79307bb686dd87f85135b33a5cb27dfa36a62c7",
        "degree-biased": "c1d213ba463e38a41e4b42dfb56b887374b47b24d3fe2d3e3c0841d29d6ab7f4",
    },
    ("mis-adversarial", 5): {
        "arbitrary-removal": "6dc3d8228e1a82be0d5d248fa79307bb686dd87f85135b33a5cb27dfa36a62c7",
        "degree-biased": "c1d213ba463e38a41e4b42dfb56b887374b47b24d3fe2d3e3c0841d29d6ab7f4",
    },
    ("flow-match", 1): {
        "flow0": "4809f71e52df7df544a440df3771d1cd31a65da4feda967d7c3e5c631c4d0b0f",
        "flow1": "1ee18f47cd0036fbca63e3ebc6850abf322f12f72d43e4791dfaf025b661e8e0",
        "flow2": "4768fb11a5dfd69a32c433afcd9749002ef39fb1ca062505eb788f28cfc19ddc",
        "flow3": "41671b2e149e04a00e99c7dcd4cdd81cb4d3ec1598025cc947624abe48e1ab92",
        "flow4": "4be0a23e337481186713d5f46ebf30053fa219488a39e39fe2a41bf980eb0ac9",
        "flow5": "437004a6a7270b4ed44b5bfd6025d83cef28ca3ceec31f270798cd477ec5cfb7",
        "flow6": "16b1c05481413f0bc172308f2c9a78a4887a76f8a504872fcfdd0c6213058e24",
        "flow7": "d3acf4e6abca9c0c503183e68e250267ae8580a2f38b2ce28573c3c574ae4c0b",
        "flow8": "facbb71f6574ffd2386170b5583d5ec181deef5a85b3a0dda74e932284f2e71b",
        "flow9": "5198d18a9ededbea5d0f5fc9413c651fcfedf6b6deca66ec0a97b32a3d9bff1b",
        "flow10": "33daac7e3b1b9aeafdbe5a7ba15d155b34d129f8515f3201a38fa15bf726f2a3",
        "flow11": "66c13336f85d309467aa29988aee611cf352b3d5df21ed70f4cd92f0e786e6b2",
        "flow12": "7a44a6c8e3163bfb515f6f46de6eb7a634f9be5a6a1b7a0be99dd7dc0c470246",
        "flow13": "6628e378a39d060799f8623455f2f2bb405dce8ccc92190a156c557dc44d067a",
        "match0": "967ea0dcfdc5dc58f31e85fc06e87f82188ec7da11ad0b01cc90c584dcbc0ded",
        "match1": "4bf44b7acb87d22ffe4a9efcbeb89a31e587a6a081a8ce39f214d7d1a8f324dc",
        "match2": "e89d786a7f180b74307710b5f3efc8a48d1ee2958a1fe8c9478ca8d1fa315e78",
        "match3": "7602db104a3754b94df5a4293fc7fab3f9bce99ab5f666c5fbd97092d2bf539d",
        "match4": "e8ec473c461dc6765b24902f6f94c1a92a3aca2f59f267ffa30c4bb5ec8dd734",
        "match5": "fdc15597465741bf29714eb4a8e19b529ebe37c4d1a91af201e4ff207e324d81",
        "match6": "2bd5a9d202eec0e510bb5f78791e1a9aeb82ebc2ab43fe5751b7a16d5ce5738c",
        "match7": "2edc8cb9a60cc811887cc21526803543c600e3a3c0247b1fd0bb7df8f9676165",
        "match8": "7fee3cf417ffa5df334fd9080f47b7029b3f6a196e6dbe36c33e133a16039a87",
        "match9": "a52f14ed4145ee4e918d863dac2948186668d91cca1fe2b6a48296e683acf5a2",
        "match10": "3247d6a797151e167da9ad6824c821c3d90919154e1f64b1b2b4fdb8c534286e",
        "match11": "303e61b35b8ee4410a08f0ade2af60a5f12e00d3ad4022d03fa46e68f92f23a3",
        "match12": "e96b96ca88f59c519ace8c473b0418968838e68be7404434d4cc7ec583208e98",
        "match13": "65e3065fb28ced5c497c4e5d09feabcf050fb3d1a6bf801a3f9f8406e7a4b840",
        "match14": "af58bc4c04ec84c04139fd7a973b8a022cc0eacfca6bf306751a4af1a72f8261",
        "match15": "b428e64dbcfe2a023350c08e8c91e9ea8b7dc39af81a89bb693dc5447d8b3059",
        "grow-flow0": "d3b734bd4a8e5169f7bef611573d936638733482e7e72d36c1dd8be064b316aa",
        "grow-flow1": "b53b7a5832cb3f56ca7ac1cbc953e1743de90ebc66746c876687993346ade147",
        "grow-flow2": "d37c3f1d8cd46a7116fe557f7c268445a2f77c9e421a97b37679d62c1f08a606",
        "grow-flow3": "0beecf3bc9b87a5a4e2f5b54a6a385cf608249f13a5301d9ed9e27b4999811d8",
        "grow-flow4": "77eee9d69031f479c62b403982af375afbaf0bccc8961a1447f3bc427c77205b",
        "grow-flow5": "cedf0872cb06e21cbcbdaf8a92b620412153068b221eb10c1ee0c5ed0fd6a8da",
        "grow-flow6": "fd2a222ec0ad381602bcac6d8dc1dfd3880b6597305b3c1fedb5ca8f11e85a21",
        "grow-flow7": "16fef1abae2a445a8b674d8d1922b4434e94315dcb707162a907efc6eec25b0a",
        "grow-flow8": "e72d8029f450ab3c21d9ea06f4cbef5e507d2ff210b7f71f60f92c3735f1b51a",
        "grow-flow9": "aba0eeff1623cd347b59bce319daacdb70bdbebd37c3b6e4bbb08e889b474748",
        "grow-match0": "a659753a6fd5bf28916d6242a90d06f1b3d70cb627ba3744e22d2381e915f265",
        "grow-match1": "e732e361eeef2465809bccfe2846da60d71b04ef71890eaa85f3a8f78e76a9d3",
        "grow-match2": "13565b15a5c41d3cc42634791d291382df14e089146d754f0d33e313739834ed",
        "grow-match3": "2dbae063baf035f04061b4d004cd80b52b0777f9de6a2fee9c3722a3d4969a5e",
    },
    ("flow-match", 5): {
        "flow0": "3c1b1a9a8bdb83d24a0cce80efa4c9421f8d27da8d77a6da97957c55bda31d0a",
        "flow1": "b65e57aaf2a094211203a13f158db00391e63f429ef990743309e59d8a89902d",
        "flow2": "f544e1d0245e90a7f86caf4893260aa885636531de0303fd4eda1dd23bb61339",
        "flow3": "a80450bcf7df952d40c2010bafa6519059bab0e0698dbda02d367dc71fb4e9d2",
        "flow4": "85c3b575b67a26592dffb2d49af11d6ab580e0b0fae23c0f44ab8cb2eb7cc025",
        "flow5": "90350589229611135e96eab4766e8af5fcdad586e77211bb440561251fee2400",
        "flow6": "f2a8c54ee1342e882fd9608202293d33b52f4cabb402bd1fb0d2bb827409d638",
        "flow7": "c985b91776fed17133ca801ab4c846f75b19c67dd2fa23ed224d82d4fa892f3f",
        "flow8": "6361b8a565c4aa29cf6d7514cc5724600ab0a46b544ecb92dabdb59f9d6574d9",
        "flow9": "3d4cecf3a1a1abccb47370a514d275b981f16c43db7fe4f2267ef30539e3e685",
        "flow10": "11ad2e8a86df8dab690715d0134f15c2e6b215c8c9db0339f79ff5d0603b0da8",
        "flow11": "8e51353f0b04883bcc56363c0719eb0ee5b6c476b3642268c0c0651cfb9f1fbb",
        "flow12": "b2b367395b3c6f57218f17c02f4d8b2a3e8c7e0109a9d2a49ac5cb3045226c8a",
        "flow13": "c3e960fa2edd99d64b57706890dbd0907faa300b1e356a9f80b585b8d2fadc9c",
        "match0": "b09b1f3282c653383e03e8bbe21a0ff459643f513aa852092d50a5f107b95d32",
        "match1": "1cda37a55f9d97acf3e0147cebda0e56304ef97d0dfaa88f701e29b9867c1218",
        "match2": "e45a0cfc7bfdda8fb8d04728b0601bff32a4f104e655581fc41386fbfac258ca",
        "match3": "93dc52c393b4808cb3d02eea306a0825fab96170400ed0172b3f58c0fc441e2a",
        "match4": "6cd99f2c068de9624eeb93a78001b268a534657cde64904414414f8d8421b457",
        "match5": "c6e45d5adf61823c22103e8ad70a55ea6c68465846d5946dbb6ea979f7249718",
        "match6": "442be6ce6bb816e628e74b162bf4a1e583e801ef53ea28238a216a7354263d85",
        "match7": "c5715bbb370d023d57fd25affc396a924740b47f9d6b00c9b469c112ecee7427",
        "match8": "dbbaaebdbb827f88be50c9907d5cb70f0d636c77f6d56b3570f084916eddc915",
        "match9": "65ee7653c07a54bcc82e212e3fb1b74725181f1e4efbf17454deb38e9ee58b44",
        "match10": "febac9536bb98f006e439674d922f07bd6b80037cae16f493e3234ad3f40b754",
        "match11": "e035fd57a375a5356ad619b350ce792c0d6d241c673e5da5c0444f4871489b23",
        "match12": "3c4781c4482fbae2a2d103eaf61a985dcae6f759646ba1dde000e48f6458f414",
        "match13": "bed75e9fd41de396a0b87378d872d4ca1294abed29b6d9078e1b29e5fcf1631c",
        "match14": "1845dec935053983bc68e6982eae559b7444ac25875e8bf4ca6edd74f93c6287",
        "match15": "5fd4376652327950f8e23ed2f6d6590f0881714abfcaacb95ddd371d4d061bca",
        "grow-flow0": "04fe262da10816243a7b25603a872ec8510302cea0a1d64b51799f1efd157951",
        "grow-flow1": "d2ea42cae56cc782e7dc064d8cfb89f7e5051de1a83579f87d6370d0d509bb63",
        "grow-flow2": "2cf8cfe2c4d1ea7ca30e99eae994a0d35a2724f24abc8c25635dc0a239ac1aaa",
        "grow-flow3": "6aa9d9aca589679a7b14e8fdb36c7e080ac43d6edfa5f6a3bedd1dac8d05b5ea",
        "grow-flow4": "c95e7194987ec56bf03d36deff003f076785d9c5c77f4c075a01d71d85c51c8f",
        "grow-flow5": "f5e726695acc630cf6516e2a60985736e09e359173d96bc79a18b0ae2713a67b",
        "grow-flow6": "20aa6d4f45eb07bf9103714cc327d4b844a3acacc029ea4b57cc271788ad2952",
        "grow-flow7": "cc57c817f57cdfb50aee6c7d1d34c15997944d76d41ed527295140fddeb12330",
        "grow-flow8": "48459b8735ced6d72c1292e6648442705fa61f71595d6521b42f7f427c2d57ae",
        "grow-flow9": "3a9168c327beae334ee547815a923968b5a7571b4f5e49ee737185b8dee2ed72",
        "grow-match0": "07f8da889b00705ac7cf02496c1777977939dc5e0bbeca29fc92c53ca56cf8f1",
        "grow-match1": "d2775671e5f78473bfdacf178ffa300fc8bca075bb97ea40f88722dffdad7f4d",
        "grow-match2": "8e11b95c2bf11e85fe69bcdec5f4492e7d80354577b18d3fbfa0e26aa361d797",
        "grow-match3": "e38e9421f09e0cc28ec7d90727d2d7bcfc4261694afcb4bb8ab7a4fb28552bf6",
    },
    ("verified", 1): {
        "mis-mixed0": "fdf9aacf74a621c0ac934eb1a90d97591377c6eba835a6b642d54f04328e69eb",
        "mis-growing0": "59fefa073b65aef50d889f752c13b88d4302f0dc7257a6b87a1c74376394981c",
        "mis-mixed1": "8e3ab96b4796ccde84416cd1204f28c7726666b994005a2942e0ff4dc2ca792c",
        "mis-growing1": "7d9cac1d74adc2843fe93318b03f1a5b5f47c242e7d3f9c51968337e8f183005",
        "flow-fd0": "940c85638b31ce7793effa43403224d4b92b4e38e43cac4d35097cd1c9201ad6",
        "flow-fd1": "c69ec17fa9a752f0ec0459c7393febaca867caf75e5e47f707f97f540b3d6c0b",
        "flow-fd2": "7e1838111d7b185bbe3e15cc1fa2577f35954523ea724823828abad820ed3c4b",
        "flow-fd3": "050722b88618269f788d3bc6f898c0f471b04e7f1ca48536f6e28359336a653a",
        "flow-fd4": "7f9df82e94763301c327c97017db81dfdbd8d0fb14bdcb4d17d032d0a3b31ee1",
        "flow-fd5": "08da4647494cb0da1b792b8768cdf0f1773ae7654a574060c0cc632bba5c6bf8",
        "flow-fd6": "cb85ad900196350e128744a9a5fcd48aa17ac3eae8b43ced05557e3ea0e65f75",
        "flow-fd7": "f7a7c97a14199dc9e819258ca84e2bef4c7b3154e254898cb29ef424a181b957",
        "flow-inc0": "f5a51cc2f37094ae6987a1a9773f78e97d2f984d51a2fafd2d9251aac8e25fe7",
        "flow-inc1": "4ae6ee1a45f9fded66ba7952193d69be72a21d504b79aec04c6d431fdc5cf227",
        "flow-inc2": "13fbd7ff8215bff6c99f2f2bf508b5a6da8c02920bbb0dc8f6ed68a522fe6491",
        "flow-inc3": "6de46fc2eb75396f6a9cd0f52db051654c266d1d641cb6dd28908267920c81f9",
        "flow-inc4": "61f5adb6e9d42df07dd7f31858c31d84f6b62f5057a3028e6315134dd65fd8ae",
        "flow-inc5": "0d6b1c083f8a33b97eb449e82ab5c2680f2362e1341044542edcd6ee1abc0325",
        "flow-inc6": "04a2941e5907f7da18af875db1526ae4639d586b4fd15cbbd21ec1f966b126b2",
        "flow-inc7": "18c569248929923061e493511d1834bc4b1e63f0a0aa6a075a15804aa5be71b2",
        "match-fd0": "77cc7f23a21abdc40a7a29512e677712f4f3800f67f515d6d4eebd65b8edbb87",
        "match-fd1": "f681c67f710bbbafeda71ee4ebe6651156f6c64d39d534bbb395ba13f169c6ee",
        "match-fd2": "7030c19dd0b78637b636365a5de89f61ae4b8b4155379608114b2f92ca4cfd7a",
        "match-fd3": "90f9c0204a75944bd12cdd4d0c899a0a5989951f69926f2a1b4fb54140f0fa46",
        "match-inc0": "b4ed02f8e710ea10d27cbf56053ad7763e838a65c1e81707a480b9050e4de48b",
        "match-inc1": "96729e829790c3225eda664a9ea6ed7908caf13580db711a884bad7fbdc88270",
        "match-inc2": "85e4d621e40a067881f230a664838ee1a7d5e550d6a6b74cff71d619f354aa39",
        "match-inc3": "57857952eb7c6b899662665b1b1c6fee1989a8f24a9180c66e99582e83032a43",
    },
    ("verified", 5): {
        "mis-mixed0": "26f3ac50d12f1cd3bffbd55c23ad378ccec740e3c1f2e48e85aab32a07d8afb3",
        "mis-growing0": "f473b7516274b770e89c13c26623292264d324c4c393ffa15193062d6697aa31",
        "mis-mixed1": "cce57a83ecbbfe5ad357393cb17b23daf05b3f86d56ebdfe2b178ade897e4415",
        "mis-growing1": "8f7566be30bd0228db8bc5f940d89c4ed60ae5ff5d24b2cd33299ec6c2a56eb6",
        "flow-fd0": "436d78ad52d3552f7141a5383c4b7f8099c44c19ecb065507fa09f9b4ec2df3b",
        "flow-fd1": "58ccf613010029d395d9a2beff741cf6da65ddeca0a92292afa725b343604b42",
        "flow-fd2": "2002f976b04e0ade34dbe7eb1c8c07ab112ebc5f8d7addd6fe85a17a998d0ec1",
        "flow-fd3": "93a967a7cbceb9357c6b2d751e8743d328b609c5aaa4f899ef440b087c9f4170",
        "flow-fd4": "b7149ce59f315acf0373b1064575931c088bc79b883f8a2b2266934f70fc4769",
        "flow-fd5": "fbf4b0f470c4368ae8a8437912ec08f8d69cd7cb01f292ffa3bf7fb62522712e",
        "flow-fd6": "f591ec60430a165c6a864bbab89d438636be601a2560ce788584af2c3d7281f5",
        "flow-fd7": "71705d3a2d58e131896f72b84249f28c48d24449d6a6dd3c125c1ad7fba3ba08",
        "flow-inc0": "7ead348974ff9d74d1910d96aeb36f2687cd4a95337ffdb88940f5003a8a2f93",
        "flow-inc1": "165d05cfe7c8517690f3ec98dda1910e60164a4a7885a0794272e7493deb29f5",
        "flow-inc2": "81c2d93431f9c149789dd72081f5bb9625dbfede91cc52d4850c7f78f513d895",
        "flow-inc3": "2733180a54ef9e3488cbdbf344f0605fe4b742be9ae2bbcba3e6bc6f163109c1",
        "flow-inc4": "f2adecc8235d97fe43076dcbd1c7d0f3d0d7ba268db0872fcf06fb0e66c88d1e",
        "flow-inc5": "4a31d319925f138520de24a3fd65be5f3062c37795e3cbb90db0e3cb244065ba",
        "flow-inc6": "13ff0e10cdea8c0db49c1d477c69008dfdef28c0c05bac4ab562f024399f5b48",
        "flow-inc7": "565b030fc7af3a427ee3816788a26e181d8a685c3f504ca486b2eac9a5ec6e29",
        "match-fd0": "03a7213c7b933294bce8e62eff445b533b71b1fd35ce0b5ebbace3c06d54dbd5",
        "match-fd1": "f2527ffd20edf526feb171e31bd2f2ddd98048cf1440d155020999f7a5c1090e",
        "match-fd2": "f2b65e346dc520fe23bb72c72e7a6ecab85b76c86cb15f5b9662f2547ca9cf76",
        "match-fd3": "d7e155e82c3f52083d227daf18005f35b302adc899d202843222c10e84befccb",
        "match-inc0": "bb9754566c86c0594db5babe30f00fe239c423221d4ef7e10f10b8385ec8342d",
        "match-inc1": "a0ef86517d48fb385f282af1745c64857d0717210e156e4d63587cc80c9b186c",
        "match-inc2": "057ad9c68fad850a67b3b89242eec56db3e218d381f1ce2fa1bb5be6ce1e4d92",
        "match-inc3": "97b9eb624bf67b2ad0402fa415f6ff78399da24b3ade3d4d4897c40e1cd1ecb3",
    },
}


def _digests(workload, seed):
    return {
        label: hashlib.sha256(serialize_stream(spec.generate()).encode()).hexdigest()
        for label, spec in _specs(workload, seed)
    }


@pytest.mark.parametrize("seed", [1, 5])
@pytest.mark.parametrize("workload", ["mis-churn", "mis-adversarial", "flow-match", "verified"])
def test_benchmark_streams_unchanged(workload, seed):
    assert _digests(workload, seed) == PINNED[workload, seed]
