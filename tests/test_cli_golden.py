"""Byte-stability gate for the ``verify``, ``count``, ``enumerate`` and
``map`` reports.

The digests below are sha256 sums of the exact stdout of each command,
recorded before the four bijection checkers became one table-driven checker
and before the region records, the union-find and the partition formatter
each got a single implementation.  Every byte is pinned, so any change to a
report's fields, their order, the enumeration order or the formatting of a
partition shows up here.  A change that alters these reports on purpose must
re-record the digests and say so.

The ``cycle-lemma`` report is pinned for every n from 1 to 5 as well,
recorded before its plain and prime orbit census loops became one loop.
The four theorem suites are pinned at n = 4, where they sweep all 64
graphs, and at n = 5, where they cover K_5, recorded before each suite read
its graphs off one pass over the regions of Ish(K_n).
Apart from that suite, n = 1 is left out: its ``thm-bounded`` report changed
when relative boundedness became ``dof == 1``.  The ``map`` input is the worked example of
the README, written to a fresh directory that becomes the working directory,
so its relative path -- echoed in ``config`` -- is stable.  It is not
relatively bounded, so ``map --bijection bounded`` refuses it.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shi_ish.cli as cli
from shi_ish.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

INPUT_FILE = "example.json"
INPUT_DATA = {"pi": [4, 1, 7, 3, 8, 5, 6, 2], "eps": [0, 0, 1, 2, 0, 3, 5, 0]}

GOLDEN = {
    "verify --n 1 --suite cycle-lemma --format json":
        "cef1ad191c1703e95dbbab25a50e9b94fbec6bec77c52ff70b2e7f49ad4a58f4",
    "verify --n 2 --suite cycle-lemma --format json":
        "c4e264cadad514a95ac10094aaf55fd2405e56038563accba13f02b41f7e5098",
    "verify --n 4 --suite cycle-lemma --format json":
        "1a0bf22563c0b5aa9322f8766d1acc9619cc88345cd0dfd2c7e83d9f57695a44",
    "verify --n 5 --suite cycle-lemma --format json":
        "1b1a4533c45170951bff7ccb06fe0420097f0b723603d6e7f6dc650ec02c5e5c",
    "verify --n 3 --suite cycle-lemma --format json":
        "e11e0cfb6b4f8b9a78f1144cc3221ee344944012fb2c09b15082d1f7ea07c87e",
    "verify --n 3 --suite cycle-lemma --format tsv":
        "db3226631ffe59b763276894f5b08ed1fe0883bde8b68c68eda332a905fd56a2",
    "verify --n 3 --suite thm-basic --format json":
        "a7cb33b8065c10da7b8ac8e44a8a3f5ba46e95e052798394755e24d5a543d454",
    "verify --n 3 --suite thm-basic --format tsv":
        "444bd214b74199010f0513a87143f4aa1aa652d9d7caa1791697355e79398718",
    "verify --n 3 --suite thm-dominance --format json":
        "f42b9c908fbc44ffd6426165b523dfc709c22af6b00bc850fcccd98889e6137d",
    "verify --n 3 --suite thm-dominance --format tsv":
        "f906f5ed6d47e6101b1ac2c9fdd276740ed33f6069ccd934608b8442f3a29696",
    "verify --n 3 --suite thm-bounded --format json":
        "a653612cc3e42ad4acbcb498b9b1c8b79d48dcbb65d36215af191408aed6296e",
    "verify --n 3 --suite thm-bounded --format tsv":
        "a3215f4708dfd02ed3a95c02a2ba911383a4b312e254decd64877de9b76d78e9",
    "verify --n 3 --suite thm-freedom --format json":
        "6acfd1d78971820d5fece2ecd90bc55f8c791b83fc6605b7736cf2c8ae94dc54",
    "verify --n 3 --suite thm-freedom --format tsv":
        "152f10e94d289ab427e9dc61b97785bf1b3d7789f92f490ca4bc521c90d2a20d",
    "verify --n 4 --suite thm-basic --format json":
        "8a5f07fb85707f546c5061964b5f06355fb026f5b9bd84dabc122b6084880605",
    "verify --n 4 --suite thm-basic --format tsv":
        "444bd214b74199010f0513a87143f4aa1aa652d9d7caa1791697355e79398718",
    "verify --n 4 --suite thm-dominance --format json":
        "15f65cb8f1de0a1af2963190c0023ee238945337f254918ba2ea7f8d6d0550fa",
    "verify --n 4 --suite thm-dominance --format tsv":
        "f906f5ed6d47e6101b1ac2c9fdd276740ed33f6069ccd934608b8442f3a29696",
    "verify --n 4 --suite thm-bounded --format json":
        "9c147b3b86c15522eee9b49b0adf62a645d66950c72a10ce9adb7ccec997b8a2",
    "verify --n 4 --suite thm-bounded --format tsv":
        "a3215f4708dfd02ed3a95c02a2ba911383a4b312e254decd64877de9b76d78e9",
    "verify --n 4 --suite thm-freedom --format json":
        "9123aa9bf713fbe5c7da558039a29f84a35869e3aa1a51dbee0b582b94d469fe",
    "verify --n 4 --suite thm-freedom --format tsv":
        "152f10e94d289ab427e9dc61b97785bf1b3d7789f92f490ca4bc521c90d2a20d",
    "verify --n 5 --suite thm-basic --format json":
        "e69f8c6ac5b56206f4464177df1f72864bbabb3f9c2241f3a6e3cb361d4380ad",
    "verify --n 5 --suite thm-basic --format tsv":
        "444bd214b74199010f0513a87143f4aa1aa652d9d7caa1791697355e79398718",
    "verify --n 5 --suite thm-dominance --format json":
        "4e81c384e1722eb85a906df74dcb9aaf60d8700c804540bb2c4a86c3e1f88531",
    "verify --n 5 --suite thm-dominance --format tsv":
        "f906f5ed6d47e6101b1ac2c9fdd276740ed33f6069ccd934608b8442f3a29696",
    "verify --n 5 --suite thm-bounded --format json":
        "41feef8c0672e6812d2f813767b1628841de89f85ba88ab098d1e7b758313d9a",
    "verify --n 5 --suite thm-bounded --format tsv":
        "a3215f4708dfd02ed3a95c02a2ba911383a4b312e254decd64877de9b76d78e9",
    "verify --n 5 --suite thm-freedom --format json":
        "2789b1a4f16d1ca187ddd3d0fccfccd452bdd2a3046266ba970ee95332db28f0",
    "verify --n 5 --suite thm-freedom --format tsv":
        "152f10e94d289ab427e9dc61b97785bf1b3d7789f92f490ca4bc521c90d2a20d",
    "verify --n 3 --suite formulas --format json":
        "9ea7649ddb4461e6d2be802332a69ee618e80cc83fbbc89851bdb1edc119bb48",
    "verify --n 3 --suite formulas --format tsv":
        "e4cae76513f2c771c952cb3e9d1f60626bfaca0dc72e3b27c3c72171e63a0741",
    "verify --n 3 --suite negative-controls --format json":
        "4ea76d91a515ad58f890ed6ee05b9ce82f2a1ebf9b7a6bbe6648a4cf297e8362",
    "verify --n 3 --suite negative-controls --format tsv":
        "b0a847b947dba4e2cc8b01e1a8bf67387d96baccc35af979abdfe3021a0125fd",
    "verify --n 3 --suite factorization-candidates --format json":
        "0612db904685340c46a207db4a1e9ba4da961c29c797b6cbe4caaf9b70023b3a",
    "verify --n 3 --suite factorization-candidates --format tsv":
        "7531be12fb834d93c837840007e4058b06cdb4f3454e62c657f3fd32783dfa67",
    "count --n 4 --graph complete --format json":
        "d1bbb290aa27904cb9a3ffcadfa58483c0c063b35786f6cd2641e0ed414adb39",
    "count --n 4 --graph complete --format tsv":
        "42d43474c1b74b954c8006768b2d440c838b2a3c4a7c9b1c8ebfefc583630010",
    "count --n 4 --graph complete --by dof --format json":
        "0e245e53c58777917adf686df1b22394577c1dad3970f52f21d765ca9203da97",
    "count --n 4 --graph complete --by dof --format tsv":
        "8a6fafed63ce07c704968b06a1b6032d53fa1229ae736da9bdd97258fce999f5",
    "count --n 4 --graph complete --by dominance --format json":
        "ab5e61637fecd8f7bb5f3dc47d380b709abaf2be6f673e2ed0746a75bb52658a",
    "count --n 4 --graph complete --by dominance --format tsv":
        "8a4b455cd6f0e470ff0e233080e0480bae4e4fea0c8f2f9798697ab37782ac83",
    "count --n 4 --graph complete --by ceiling-partition --format json":
        "a4cb54cd4fc7e3ab35536137046f6078972a8b803e184fb508b5d131aac5a282",
    "count --n 4 --graph complete --by ceiling-partition --format tsv":
        "030851b9b3d637d18ac7cfcc2e44b19c695057b5bfe82fcc0cc4c44a0d38b1af",
    "count --n 4 --graph complete --arrangement cox --format json":
        "827a371ca405e54f297518e7946e1c8183b4106a82776c41cf44fb456b54e7a0",
    "count --n 4 --graph complete --arrangement cox --format tsv":
        "f6960b466e22bae1a89d9578c484bb6e7b8ba47335204d7a0162082f6eabbfdb",
    "count --n 4 --graph complete --arrangement cox --by dof --format json":
        "68be5731959aaeb4ca46ad1d72132206420ce347fe269b3bd8a69db2177fabf9",
    "count --n 4 --graph complete --arrangement cox --by dof --format tsv":
        "023aa5af2ae06980bc754f46b6cb4c09b6545d6b953fc7c3145c9f755cb3d558",
    "count --n 4 --graph complete --arrangement cox --by dominance --format json":
        "378b174b068dfd5dcbb4b0c39d2fae8439de9f122340da27f5e9e8be9d033877",
    "count --n 4 --graph complete --arrangement cox --by dominance --format tsv":
        "70808817c7adba7e783fdc3ce6d29d111e38d630d4aacf9297da4ad93eecc939",
    "count --n 4 --graph complete --arrangement cox --by ceiling-partition --format json":
        "0f33b6db7c722a491f65067ef6d4e989420915030e9b3b5db4d7ac220d87d05a",
    "count --n 4 --graph complete --arrangement cox --by ceiling-partition --format tsv":
        "01f9ef804ff16289805b65b20409118f1476e97569b1c513cda3ec060754b5ab",
    "count --n 4 --graph complete --arrangement shi --format json":
        "ad21c81489ecd18a75409fdd22c36bdae15f0701ec505030d6d34f752b79edf1",
    "count --n 4 --graph complete --arrangement shi --format tsv":
        "454214ec8284f20a828ff6c0de75166f3d11439192d593837c708224798b2e61",
    "count --n 4 --graph complete --arrangement shi --by dof --format json":
        "0208fd77025f3790c1b6b4e352e2be8be45fb55656fe7d25d619b60a41639236",
    "count --n 4 --graph complete --arrangement shi --by dof --format tsv":
        "f977603340429e0af10c1bda3c619699d06b526c9a9896cf62b11b8f88aaa6d8",
    "count --n 4 --graph complete --arrangement shi --by dominance --format json":
        "761b532e67ab8be351cf91bd76dde43cfc0ed4ae59a9d04fa8195e0299502d3a",
    "count --n 4 --graph complete --arrangement shi --by dominance --format tsv":
        "3451ef4e9ba4a1f6732a3cd9c5be21644f52dfab6797ea314d5a69572dfc63cc",
    "count --n 4 --graph complete --arrangement shi --by ceiling-partition --format json":
        "763de92f5e540398748bd634a5c160dc221a67828bd52b1ee15fa465cf337315",
    "count --n 4 --graph complete --arrangement shi --by ceiling-partition --format tsv":
        "377484f2d932e58104f7fe8d8b7f62d8f4ecf00b420bcfcea6bca89d944f677b",
    "count --n 4 --graph complete --arrangement ish --format json":
        "ba1f580bc2653f22b73ee7e3e3f223a4049596e4b9efdb03a7b86172c2eceb1f",
    "count --n 4 --graph complete --arrangement ish --format tsv":
        "4dc083f89d8b971f811c20c874d37c3b7b545de069f680afea4572ea15887d77",
    "count --n 4 --graph complete --arrangement ish --by dof --format json":
        "6c0ba6e035298712947697074bbe0aba00c09ce6ee371371da735df8d2b12034",
    "count --n 4 --graph complete --arrangement ish --by dof --format tsv":
        "bcedf4dc133a21842d479e902ff90659081c8a9a04a74bf93b257253b9b92991",
    "count --n 4 --graph complete --arrangement ish --by dominance --format json":
        "9410658f594a005c0b19076f791ec2c6a210f65ede34652b6200985c2917947a",
    "count --n 4 --graph complete --arrangement ish --by dominance --format tsv":
        "e861268afd665224cd17e1a153c8180f35389a1de9c83199674a5b29cd761e5c",
    "count --n 4 --graph complete --arrangement ish --by ceiling-partition --format json":
        "3bc199c5ba2a1b32850118d7449cc606129e7cf591fa1dc830d379b732d2ec23",
    "count --n 4 --graph complete --arrangement ish --by ceiling-partition --format tsv":
        "db8925f7fedb8bb5d6ea48a764a2937a8137662ef157e09067de3be137ffb6bf",
    "count --n 4 --graph path --format json":
        "24e0829912b07e8f247ec677905567190a04ca2722cf8d1da512858803bb690b",
    "count --n 4 --graph path --format tsv":
        "641164677d8c1afcbe8011735e7abbec472010415fd5df3f59ee09da8228737b",
    "count --n 4 --graph path --by dof --format json":
        "275b0cfa8715aa20495d63e7b374038e4464c591087041b1f28492d4449eb51a",
    "count --n 4 --graph path --by dof --format tsv":
        "46c566a6bc372f356c72f44a3d95ab95cc7931c2e13120108d663aea366ca6ba",
    "count --n 4 --graph path --by dominance --format json":
        "d4848794feda2d6d47ed01a6272ef3fe6c2b524836d1baa16db0ed0e1ffe2b7c",
    "count --n 4 --graph path --by dominance --format tsv":
        "232b8ee47a0179a3679dd7a0b3490f7faab3c06128374a851a08c8eddae27c4b",
    "count --n 4 --graph path --by ceiling-partition --format json":
        "458e4a11ad2b400575fd4f3801e5ef05b70261ae0d925266cfc6de84650a36d6",
    "count --n 4 --graph path --by ceiling-partition --format tsv":
        "6992ba6f00fa6fa2fdb38a06947da73b1f4a1c52f06f2802682d57eff7eddfc5",
    "count --n 4 --graph path --arrangement shi --format json":
        "dc13d1c52932fd4c6e9c34fe25c20c3d7c2b7fc486ec44e767415dcce1002a0c",
    "count --n 4 --graph path --arrangement shi --format tsv":
        "1ac80ef65b15d12bc4ec09911ea354d093d1402443efa45320bf2c82b0172ff9",
    "count --n 4 --graph path --arrangement shi --by dof --format json":
        "18bf0f1a79622aa282887a81c2863a13700ae5a1d59bf964241f131e86a1c1ac",
    "count --n 4 --graph path --arrangement shi --by dof --format tsv":
        "0fd05d2c2ae6aebe2be7c043ca2b825a10aa1c2acf40379612da47968cab7bc5",
    "count --n 4 --graph path --arrangement shi --by dominance --format json":
        "0fc34eab6fbf4a47a01aee9752aa7b0a8b28aecdba36885a706a894a7633fd37",
    "count --n 4 --graph path --arrangement shi --by dominance --format tsv":
        "90dddbc0005e3abcf2f7316c5782df8f2bb7bf92944bbfcb2d092dcc6ccb1859",
    "count --n 4 --graph path --arrangement shi --by ceiling-partition --format json":
        "0403b70102b5ce6d4a27a56e77f861270d3954946586f237f449501ef2249b50",
    "count --n 4 --graph path --arrangement shi --by ceiling-partition --format tsv":
        "71ffeba5e216efb72e3ce0a1aa4c0f4a468f71c7f2238ffea446cca5b52b9111",
    "count --n 4 --graph path --arrangement ish --format json":
        "a08a4a1e18ff4a01e647c3d7bd6c3177fe4484e008e4076cc62f16da40a98da2",
    "count --n 4 --graph path --arrangement ish --format tsv":
        "8c1b40051f80c6c85fcd52ca620da5063d4e0083b2920acacf1ed53f549a6850",
    "count --n 4 --graph path --arrangement ish --by dof --format json":
        "c7f99094e85bce67f505a17fa176cfd96ea6521ebebc89308f5d1fd3bf276db8",
    "count --n 4 --graph path --arrangement ish --by dof --format tsv":
        "918027c9f38dbf55112015cb54fc09c52b49a60aff9aedc0e4e17d20845a148a",
    "count --n 4 --graph path --arrangement ish --by dominance --format json":
        "e66779ddf53385bcb89f0f6ac024119bca506dd4b798d5a826f2b251df544c96",
    "count --n 4 --graph path --arrangement ish --by dominance --format tsv":
        "2ede9b7712460be92d35e8a610438d80d8f01c521b7b39a5b338a47c3a24230a",
    "count --n 4 --graph path --arrangement ish --by ceiling-partition --format json":
        "a22da4563121b7b4ff1cbfd64c0cc11092de4e79392575c4f475fb6c65f653d4",
    "count --n 4 --graph path --arrangement ish --by ceiling-partition --format tsv":
        "c322deec83a1480ad950ee39dff6a814ad1f0f444675dcdc77d5924474e0e26f",
    "count --n 4 --graph empty --format json":
        "c052fbbc9b57a4903d4a450a7bd263f12603b51f5f0b33f90d3272e8169c1586",
    "count --n 4 --graph empty --format tsv":
        "c22f1be171e2e2c2eb2004d765e3902b64a6276e47eafdfcd485ee023833a5b3",
    "count --n 4 --graph empty --by dof --format json":
        "c8b934a726b14320d31770e4ee05352f888ed9e876cbefbe1d118729f21640d4",
    "count --n 4 --graph empty --by dof --format tsv":
        "69798c0f4b95701814c30b8da06a862d3a7ec461681cc48d84d8551f488e8105",
    "count --n 4 --graph empty --by dominance --format json":
        "cb85e984b2e9f946b00ccc828050ee29eebf0dc312a0cedcb643dd25c3765b2c",
    "count --n 4 --graph empty --by dominance --format tsv":
        "9fa7ab3fd39fdbe25a155430ef9e73400f396b621a69d195086694a6ee645e3a",
    "count --n 4 --graph empty --by ceiling-partition --format json":
        "70d83139b94fc8a284864990586f0b5f99e21493af865b695efb6068b38a80e5",
    "count --n 4 --graph empty --by ceiling-partition --format tsv":
        "083499d4992a6d6a0de4a43b7e0205b0bf42f7b2e3490a57ef9264e62274e7a0",
    "count --n 4 --graph empty --arrangement shi --format json":
        "f073552c7fd093a18a506e762ca14952ccffb01fe16951bf01ed6d1f662efa11",
    "count --n 4 --graph empty --arrangement shi --format tsv":
        "e5df2d615fba66293b5c05cbdf34e0fe6ae5e351d54564d20956308b652f8a25",
    "count --n 4 --graph empty --arrangement shi --by dof --format json":
        "b095e35276ebcc9f0296ff10cb534cda0f7c1601a4a68616a815500a02e5f136",
    "count --n 4 --graph empty --arrangement shi --by dof --format tsv":
        "3fd850a82fbd535f0b9e68721cd1a374b35edddf947ba18fc580bbab537e794a",
    "count --n 4 --graph empty --arrangement shi --by dominance --format json":
        "a171dfce73cd53130f8c7dced02298aae6fb8d9fdfd46d022cf392c27d73ee2e",
    "count --n 4 --graph empty --arrangement shi --by dominance --format tsv":
        "50da2245d7155954b07f4b2550dab2b3bed34649ee49ebd43e2d8e567fba702a",
    "count --n 4 --graph empty --arrangement shi --by ceiling-partition --format json":
        "4f616ade408bf78fa96d2d0eee8f9f1dd56e83dcd01a601a71c8abd975a445e7",
    "count --n 4 --graph empty --arrangement shi --by ceiling-partition --format tsv":
        "30c21ece4a52aa4ed17d29e612c4e370606d8c01713ecbdd7a1b46dbd21ead8d",
    "count --n 4 --graph empty --arrangement ish --format json":
        "0f7bc1f702aa6b5b5f728d99a239fc22a1785cb4194dfa1c9dadb4a3fa8ccf68",
    "count --n 4 --graph empty --arrangement ish --format tsv":
        "7479c911c0afc741f2fcb370f70dfc59b09676bd9b415da44ad0615ee2251c6f",
    "count --n 4 --graph empty --arrangement ish --by dof --format json":
        "116d65b03c6c30f2e893704f652c7fc72d933f3f63905788fb56040baae153c7",
    "count --n 4 --graph empty --arrangement ish --by dof --format tsv":
        "80f5984a4d655a17f00709ff442fd1e1c370e191502a73b613cfd21371c581fe",
    "count --n 4 --graph empty --arrangement ish --by dominance --format json":
        "988a7f633f2d9e1c78957b24ffc19c5b5c92e60299e686e94e2d2ef6ea04a243",
    "count --n 4 --graph empty --arrangement ish --by dominance --format tsv":
        "1ce80abd2f074c946be273da2be0df35f7b31190735d05f9273df728a117a288",
    "count --n 4 --graph empty --arrangement ish --by ceiling-partition --format json":
        "a6688370eadb65ef0cc2c4b9071c7779082b5747f439d98117b41524e0fa24de",
    "count --n 4 --graph empty --arrangement ish --by ceiling-partition --format tsv":
        "19711f958b0eb952cb79fe9e76b30dfbcaea9452df946d6f4a25139719ac0ea4",
    "enumerate --n 4 --arrangement cox --format json":
        "4f8ff99237d386498c047fd4a0a3959572723f3311e2688dce716f7823561007",
    "enumerate --n 4 --arrangement cox --format tsv":
        "9781e9d8a171549852c09055cb7f29d14c8977f1d2076dcc0486ccf6dd1184b3",
    "enumerate --n 4 --arrangement shi --format json":
        "9c5cc7a1ee34aedae233f485407ad9c857e4bed8f01103a48bd4ff62e7f60747",
    "enumerate --n 4 --arrangement shi --format tsv":
        "ed74d5de59d0691e1cd4ac5c76007b5daf3178ae59677ce6ff828b4b7fc0f973",
    "enumerate --n 4 --arrangement ish --format json":
        "59ebb4c03333e9aeee24b2d1a761fcd20236629a40e5a419779f290eb4bbd218",
    "enumerate --n 4 --arrangement ish --format tsv":
        "247c7e32eb3d0e02ee509b6ef78f1658916df4d84dbc4415457f990fbd4844d9",
    f"map --n 8 --bijection basic --input {INPUT_FILE}":
        "4f545ee059d72c8db8012a72fcf933f56a6492f46e39d1c49d72899e98129554",
    f"map --n 8 --bijection dominance --input {INPUT_FILE}":
        "dfc3354281c90dba24fdebaacf7d5b6ff6b5d8697d33127acbdea3edcce4f927",
    f"map --n 8 --bijection freedom --input {INPUT_FILE}":
        "dc0a1949e779339951d7d27bfa195d362248da385bf69c0978aeb70413893564",
}


def cli_stdout(command: str) -> tuple[int, bytes]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return code, out.getvalue().encode()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_stdout_is_byte_stable(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / INPUT_FILE).write_text(json.dumps(INPUT_DATA))
    code, stdout = cli_stdout(command)
    assert code == 0
    assert hashlib.sha256(stdout).hexdigest() == GOLDEN[command]


#: Cox(n) has no graph, so count, enumerate and oracle refuse any --graph
#: but the default with --arrangement cox
COX_WITH_GRAPH = [
    f"{command} --n 4 --graph {graph} --arrangement cox{by} --format {fmt}"
    for command in ("count", "enumerate", "oracle")
    for graph in ("path", "empty")
    for by in (("", " --by dof", " --by dominance", " --by ceiling-partition") if command == "count" else ("",))
    for fmt in ("json", "tsv")
]


@pytest.mark.parametrize("command", COX_WITH_GRAPH)
def test_cox_refuses_a_graph(command):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    assert (code, out.getvalue()) == (2, "")
    assert "the Coxeter arrangement has no graph" in err.getvalue()


# ---------------------------------------------------------------------------
# one parser per process


def test_one_parser_serves_refusals_then_reports(tmp_path, monkeypatch):
    """A refused flag and a refused command leave the shared parser as it
    was: the reports that follow keep their pinned bytes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / INPUT_FILE).write_text(json.dumps(INPUT_DATA))
    with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
        main(["count", "--n", "3", "--no-such-flag"])
    assert exc.value.code == 2
    assert cli_stdout("verify --n 3 --suite cycle-lemma --graph path") == (2, b"")
    for command in (
        "count --n 4 --graph path --by dof --format json",
        f"map --n 8 --bijection dominance --input {INPUT_FILE}",
        "verify --n 3 --suite thm-freedom --format tsv",
    ):
        code, stdout = cli_stdout(command)
        assert code == 0
        assert hashlib.sha256(stdout).hexdigest() == GOLDEN[command], command


def test_rebinding_a_command_reaches_the_next_call(monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "map", lambda args: seen.append(args.bijection) or 7)
    assert main(["map", "--n", "2", "--bijection", "freedom"]) == 7
    assert seen == ["freedom"]


@pytest.mark.parametrize(
    "argv, code", [(["count", "--n", "2"], 0), (["count", "--n", "2", "--no-such-flag"], 2)]
)
def test_the_module_runs_as_a_script(argv, code):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "shi_ish.cli", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == code
    if code == 0:
        assert json.loads(done.stdout)["results"]["shi"]["total"] == 3
