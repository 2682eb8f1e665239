"""Golden pins of the law-suite reports.

The sha256 of each report's JSON (keys sorted, no whitespace, ``wall_time``
removed) on all 28 fixture sets of the law-suites benchmark (seeds 0-13,
bounds 8 and 16), for both suites with and without their fault.  A change to
what the suites check, to the order of their cases, or to a witness or error
string of a kept failure changes a pin; a change meant to keep the reports
byte-identical keeps all 112.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from butterflies import butterfly
from butterflies.laws import SUITES, generate_fixtures

RUNS = (("bicategory", None), ("fractions", None), ("bicategory", "compose"), ("fractions", "two-cell-count"))

PINS = {
    (0, 8): (
        "994062fc8fec26d27efd10e3d4032f183e007a7329e4b42aca55899850b3ea2a",
        "514e35921a4400c8dcfccc9fa5b0cefe5622b24d2bd199e86b56947fd306218b",
        "8f74aa137bb761ca7bb8f40d31b49b3d4b23725bf66d475c647d74f6eff696ce",
        "a17446b62835b0dd19892fbc65851447cf4b1ab9e35a5986c93f69dc82ace0e2",
    ),
    (0, 16): (
        "b3f4bbb772d1849d1be87a5c078acd47a7ed792f14484b90a5a5900909e056de",
        "857258aba833ce8993427da66166d4f68ea7e5581c4e69cf6b5679163b40d02f",
        "0a68170662af4de6277d7ccb2029f7e2103d88485d3a96674516272ac3340fef",
        "a0af978dfa935267e550b642d90fdda757955b70713c500652d54dd6a5855d21",
    ),
    (1, 8): (
        "8fc8b66ba1f968d6f5db56b446f2b749074f813fcc0e340e22518fa03fb755ed",
        "514e35921a4400c8dcfccc9fa5b0cefe5622b24d2bd199e86b56947fd306218b",
        "91a70c1c09bee9aaa0134bbfb57a894543185a8075ffd0195cbf641c23597286",
        "a17446b62835b0dd19892fbc65851447cf4b1ab9e35a5986c93f69dc82ace0e2",
    ),
    (1, 16): (
        "3ea774da5265c761e030dbbe3733ded27466218181f1198e45f1d4ea9deb99a0",
        "c0dfc27a25e23dd324129e7ad9c48a833c2cbba3e908769730669055b304680e",
        "a9b1cd17d916a904988e23cc8205f3b79290438964a31df441343029afd350e1",
        "60b2427ff6071cafd29c13d62ec8d988f58ff9e5e05f1804f5618b7a71b0fb75",
    ),
    # one of the 9 sets whose compose-fault report changed when composites
    # began to refuse such legs: the associativity witnesses record the error
    (2, 8): (
        "6b47f2785fa6ae36f01aac6e7fcd3d0c3268773e3056eb8289e8483995bf22ac",
        "9db8836ea2556e78cbdd9967fcee2367275c2b00cca06512af28be923f2b3c2f",
        "74b5293ff1d0a4404ef1f82fa90a6fc589ddf11212da587542c4b21b11c7554f",
        "3ff63314ca3598734df3ec1d5a89a61ade1b30a98aba4b68aebcd880f3c6552b",
    ),
    (2, 16): (
        "52ff6f0490c82896a9bdfe7ba3042be43ee6a70013c7262a2b1a43e8ae2c5997",
        "2d95ff0505d273635e227f010fe10e79f0c36c34153c8b9855baa45bb1c7c2ac",
        "d52657e7ff357e8cdeea76037526da7487df09ec77ee6cf294fccbab9987b774",
        "794355621925a3fb3847aac6c84d47fa0bbe0a9a5b1f606fae4c0e8b01b6de64",
    ),
    (3, 8): (
        "e805abfd7799a6171d90ef136217cb6dc0ac34bc06e8c65a41a93ec496b25581",
        "79007b9e77f75da25f9e343f17ba2da546541524fe9e75eaac0a32ef0fa5b3ac",
        "9dd06cdf0e37208d58dacea016f514eaec28dafbb3d15e328af27c00eeab493c",
        "2e394de1079dcf6d9e8f1727b2c87c11f783466db6cf23f22836ab76f9469cdf",
    ),
    (3, 16): (
        "0d8c93dbd0024c8d8f3e28943e7fe957cecca7c276a60e05843d8a5cd20ac481",
        "01578773d9ea3c4d1c4c1694639a42654972876d0c188955de445d01285219c3",
        "8f3686130e33f480ef242641503a85f6365c78e673d1275cdf808db7b4c4e17c",
        "80bd24795ee809a455c749f881b6cc4b2d08221ce22427a1f425c474e782c59d",
    ),
    (4, 8): (
        "c10d588005cf091c1e0806e96ef513dc1a22332ff55e39bef88edb755d7f542f",
        "3a1ebc5ac1ea0371f17f36bf9e33d2af3864f2c9c6da863d58575f309b194f32",
        "8f787fcf4cdb87c93068d33696d264a07e73310b9e010ab99e04cd2b0a4072d1",
        "e71d5c980db8202b98d2594a7cafa74e04b4ddf407a2541ca9ed13862f83d191",
    ),
    (4, 16): (
        "7c7c3c538addf560366802411bd3e5c13895c8a9e922f09975c1206b03efaf3a",
        "9a2c836582c87776e1b03aa9b0b613a59d9703bff67d226d992300cf4d6fc2e1",
        "e73c57a208efcd37a282eed60cc274ad1a9d8354bf6463b6a66b9d8f5ad85665",
        "6cd87efef544feb85b805da77682210f254cf7083a960984a599da8e6b517944",
    ),
    (5, 8): (
        "07c78cb3e60e2b90b19f80d9ec694afbf4dcece14094b8592ae1baf11f8f47a0",
        "402e131b9059580c5f947da19014fbf71c2e840b2ecabb3776c294c240b2e9fd",
        "0eb11cdbd561bd2e8359afbe8867617ddc6cdd20baca62a665369b93bea8ffee",
        "b40a221ae0a92a0357b83c7c49db58c3f653995bd4cf88916eede054bb2142dd",
    ),
    (5, 16): (
        "b275e1ee3a300e26ba877453611486d4fe718214ad9b6e8b176700f7b68f823b",
        "2f0b67aa89d7fbb339bc3405e9b441f4622da175facd1efb451be4b9947ea020",
        "5a62e479cc6caa963a79a3216ddb8619ba98814bd065a00aa4c1edfc3a91d927",
        "17a31afd8b68bef9c9cbe02a2f0c2956f2dd3ed3e086338e7c6da311c489fd97",
    ),
    (6, 8): (
        "7d0bf6aea48c47d29bbf09eb1c5225889e68a9eaf160cf83fd49d3a6476210f0",
        "402e131b9059580c5f947da19014fbf71c2e840b2ecabb3776c294c240b2e9fd",
        "8fc69fe96a9796b308d953bdb85e73a0c8c4499cb964a4d06be7cac403e01527",
        "b40a221ae0a92a0357b83c7c49db58c3f653995bd4cf88916eede054bb2142dd",
    ),
    (6, 16): (
        "3c64b94f94e150ad68610478aa5ef4a00fc096d50cfca6664816aa9f9377cb4f",
        "64223853c77190b417977e40432d5ab009742cd3ed54b09c9677d34cef6ba23c",
        "0082eb108515eef5991030790b8e079a80af4a96441e4c0342056dc93e5c1680",
        "dc6a6495161afcf76eb7fc62f9483a8af1d6c3bec56c493ace3c7ea9358f0015",
    ),
    (7, 8): (
        "5e139b8ed603d6a0706b71c64708edb396b7d4c1b659ab6ff54a276e1173bd5c",
        "3a1ebc5ac1ea0371f17f36bf9e33d2af3864f2c9c6da863d58575f309b194f32",
        "a3331fc03e1895fea44130183dbc8fec435965a20af52bc2721d5a52abd4ef38",
        "e71d5c980db8202b98d2594a7cafa74e04b4ddf407a2541ca9ed13862f83d191",
    ),
    (7, 16): (
        "d8788809738e9d768285f2426eb39d4d0e76d5ed5405dcea6dcbf1aee2919338",
        "9a2c836582c87776e1b03aa9b0b613a59d9703bff67d226d992300cf4d6fc2e1",
        "848ddbec29cdfc93fa4defd73b2ab6c211f876865858ee9907f888da9d4ee8ba",
        "6cd87efef544feb85b805da77682210f254cf7083a960984a599da8e6b517944",
    ),
    (8, 8): (
        "337e66395216b1045b1605879f496c2ac2cf4367f6f42f698a5c7dd34cdf795e",
        "3a1ebc5ac1ea0371f17f36bf9e33d2af3864f2c9c6da863d58575f309b194f32",
        "3e36a36b194bcf6a91a5bce77caf1f76005bbb9718a6e3e967b0e0e6e206b365",
        "e71d5c980db8202b98d2594a7cafa74e04b4ddf407a2541ca9ed13862f83d191",
    ),
    # before a composite refused legs that are not constant on the cosets of
    # N, the compose fault's report here changed with the pair of a coset the
    # legs were read from; it does not now, and the pin did not move
    (8, 16): (
        "6cca8efb3ee2cd16e1bb145114914032620cdf10e602f88ac58a62e14971a865",
        "857258aba833ce8993427da66166d4f68ea7e5581c4e69cf6b5679163b40d02f",
        "66dd3dbc22f1958aea08ef3a07216b41ae534d4f74f9bcf1b31173a8f84c12a2",
        "a0af978dfa935267e550b642d90fdda757955b70713c500652d54dd6a5855d21",
    ),
    (9, 8): (
        "97a08aad4b4ef419a4c5ee5a68e682df34a88df2356690b28516e0f000549570",
        "ef1cee4b31ac651ccb737d3b180b5d9d040bf773f77dcd5c5738f2a2cf4f84dc",
        "ad87364c34e83b814119f1a2b958055bb7bf16cdc8496dd9b8556e3c9e34353d",
        "75862f2243766c45d708c17c6f4232592aeb7fc575a7ac5da99989669db3aa1f",
    ),
    (9, 16): (
        "e2cca9efd7e9a71a8020cd01c5a4e2c6e1e2704d6db4fe3abd96e5393551032d",
        "c0dfc27a25e23dd324129e7ad9c48a833c2cbba3e908769730669055b304680e",
        "6f3c10c71009fae1db5e9a0170d61bd4a2517219cda994894a722e63d3a12ac1",
        "60b2427ff6071cafd29c13d62ec8d988f58ff9e5e05f1804f5618b7a71b0fb75",
    ),
    (10, 8): (
        "00d9fcef3f15bfa1928e6a2b08dc9a6b3b8beb3bdc1ceca7aa620afe52210b7b",
        "ed61f44a70a1feb478f0c72a545fac030691d61b3bcc6107891d9afd0150ff41",
        "d40da52bc71e69766163074ca73626d72c1561ae0945c601b10552767527abe7",
        "70dd716726bd7a8a3386fb2b9c04b22b8a4bed218c168fc8f31efd9b5ce1c844",
    ),
    (10, 16): (
        "78268f890223b076bfc319fd7242301d4dbc37af05d8805bb98ad855f0e77f00",
        "2d95ff0505d273635e227f010fe10e79f0c36c34153c8b9855baa45bb1c7c2ac",
        "ceea5abcf0e44210bacf8252673122b193c86de1d61fae4e5b3ad68a3f28c32c",
        "794355621925a3fb3847aac6c84d47fa0bbe0a9a5b1f606fae4c0e8b01b6de64",
    ),
    (11, 8): (
        "b77a19385dc14bb62083d8ac6365804b3083c30daebdba29e8e5d355f8d2f20b",
        "9db8836ea2556e78cbdd9967fcee2367275c2b00cca06512af28be923f2b3c2f",
        "92d17bd75023d37daa091c8090b161b113a21fa68dafa730c65a1e7a6df623ad",
        "3ff63314ca3598734df3ec1d5a89a61ade1b30a98aba4b68aebcd880f3c6552b",
    ),
    (11, 16): (
        "2936257d642d2b351eeeeab3c3f794541f4dfe6000ca41fe4725faf103a6a501",
        "c0dfc27a25e23dd324129e7ad9c48a833c2cbba3e908769730669055b304680e",
        "7b00770842cfd760bc4eef43cb2c1e8c04acba6fdadd8aa07cecaa6e26d6c221",
        "60b2427ff6071cafd29c13d62ec8d988f58ff9e5e05f1804f5618b7a71b0fb75",
    ),
    (12, 8): (
        "40293baef5bbb7cfabe55cbe5aa062279d9396f68255a1feb47114bc9a16355b",
        "514e35921a4400c8dcfccc9fa5b0cefe5622b24d2bd199e86b56947fd306218b",
        "74d4b21405aed51c5dd4c389a917c3f13f9b77ca31412d55fc7dd4812e2197ce",
        "a17446b62835b0dd19892fbc65851447cf4b1ab9e35a5986c93f69dc82ace0e2",
    ),
    (12, 16): (
        "9aa0bf55745f2230f642fef7940076d5c9297e1f247756b5465f9ac5c583afec",
        "0d0c4ba1cc411937ae869d4a37bd0bdc84e21b326f8fb69fdc1924c94410c6ba",
        "3dbcf57bad34191ca4d8f4acf104aa61ba237a21bbbb1e4874920efbf7922cd9",
        "5266eeb0850152acf1d6a7a1cc4ff0ae3bee3bcec31fc69ae17189e882970d4d",
    ),
    (13, 8): (
        "b4889ed308cc2bfc164ef3323079a002c7e3f79a7f3f2e3c4ddafb94995475e9",
        "402e131b9059580c5f947da19014fbf71c2e840b2ecabb3776c294c240b2e9fd",
        "6b8826dd5c58bbc97e176a48864662c78e731e5b6fcb0277ea20e2a3ba2f9478",
        "b40a221ae0a92a0357b83c7c49db58c3f653995bd4cf88916eede054bb2142dd",
    ),
    (13, 16): (
        "0a22e6322d34c8152fabd1b15cd159a789a0d7f7aec2c6855f1065820e333747",
        "0d0c4ba1cc411937ae869d4a37bd0bdc84e21b326f8fb69fdc1924c94410c6ba",
        "d3d05949a54e18cb15f408481cddf3fee37517e4e791238ec61178adda31ee21",
        "5266eeb0850152acf1d6a7a1cc4ff0ae3bee3bcec31fc69ae17189e882970d4d",
    ),
}

# the 9 fixture sets whose compose-fault report changed when composites began
# to refuse legs that are not constant on the cosets of N, and (8, 16), whose
# report did not change but had depended on the pair the legs were read from
LEG_SENSITIVE = ((2, 8), (5, 8), (9, 16), (10, 8), (11, 8), (12, 8), (12, 16), (13, 8), (13, 16), (8, 16))


def report_digest(report) -> str:
    data = report.to_json()
    del data["wall_time"]
    return hashlib.sha256(json.dumps(data, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("seed, bound", sorted(PINS))
def test_reports_match_pins(seed, bound):
    fx = generate_fixtures(seed, bound)
    digests = tuple(report_digest(SUITES[suite](fx, fault=fault)) for suite, fault in RUNS)
    assert digests == PINS[seed, bound]


@pytest.mark.parametrize("seed, bound", ((0, 8), (1, 16), (2, 8), (8, 16)))
def test_fault_runs_first_leave_clean_reports_unchanged(seed, bound):
    # a faulted value dies with its run, so no later clean run reads it
    fx = generate_fixtures(seed, bound)
    faulted = tuple(report_digest(SUITES[suite](fx, fault=fault)) for suite, fault in RUNS[2:])
    clean = tuple(report_digest(SUITES[suite](fx, fault=fault)) for suite, fault in RUNS[:2])
    assert clean + faulted == PINS[seed, bound]


@pytest.mark.parametrize("seed, bound", LEG_SENSITIVE)
def test_compose_fault_report_is_the_same_from_the_least_and_the_last_pair(seed, bound, monkeypatch):
    # the pairs come in lexicographic order; reversed, the pair of a coset
    # read first is its last instead of its least
    fx = generate_fixtures(seed, bound)
    least = report_digest(SUITES["bicategory"](fx, fault="compose"))
    parts = butterfly._pullback_parts

    def reversed_parts(B, B2):
        pairs, coset_of, pair, Q = parts(B, B2)
        return pairs[::-1], coset_of[::-1], pair, Q

    monkeypatch.setattr(butterfly, "_pullback_parts", reversed_parts)
    assert report_digest(SUITES["bicategory"](fx, fault="compose")) == least
