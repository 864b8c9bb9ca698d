"""Digests of what the compiler and the command line emit, pinned byte for byte.

Each program below is compiled with ``compile_design`` and printed with
``design_verilog``; the digest covers ``repr(design.ties)`` and the Verilog,
or the type and message of the error either step raises.  The corpus is
the benchmark's ``compile`` and ``cliffs`` programs plus programs whose
three or four uses of one parameter sit in exclusive branches (they
compile through a chain of call managers), sequenced uses (they end in a
combinational cycle) and a dropped parameter.

The command-line digests cover ``compile`` (alone, and with ``--json`` and
``--dot``), ``ir`` and ``ir --sync`` on every demo program, ``sim --json``
on the demos that have a stimulus, and ``monitor --json`` on the demo
traces: exit code, stdout, stderr and each file written, in that order.
``compile`` and ``ir --sync`` also run with ``--no-minimize`` on every
demo program.
A total of the Verilog's ``&`` and ``|`` operators over the compiling
programs may not grow.
The constant digests hold each constant machine's rows in row order,
which ``outputs_from`` and the cascade read.  The duplicator digests hold
the rows of ``diagonal`` in row order, state numbering included, and the
manager digests the rounds of ``manager_machine`` (state, inputs, outputs,
target, sorted), or the type and message of the error it raises, for
every shared type.
"""

import hashlib
from pathlib import Path

import pytest

from helpers import SHARED_TYPES, chain
from gosyn.automata import CompositionStall
from gosyn.cli import main
from gosyn.denote import const_automaton, diagonal
from gosyn.design import DesignError, compile_design, design_verilog, manager_machine
from gosyn.syntax import CONSTANTS, parse_type

DEMOS = Path(__file__).resolve().parent.parent / "demos"

PROGRAMS = {
    **{p.stem: p.read_text() for p in sorted(DEMOS.glob("*.sci"))},
    **{f"seq{n}": chain(n, ";") for n in (2, 3, 4, 5)},
    **{f"par{n}": chain(n, "||") for n in (2, 3, 4)},
    "if": "fn b : exp -> fn c : com -> fn d : com -> if b then c else d",
    "newloop": "fn c : com -> new x in (x := 1 ; while !x do (c ; x := 0))",
    "pair_seq": "fn p : com * com -> (fst p ; snd p)",
    "and3": "fn v : exp -> (v and v) and v",
    "and4": "fn v : exp -> ((v and v) and v) and v",
    "cell_fst": "fn p : cell * exp -> fst p",
    "if_if": "fn c : com -> fn b : exp -> fn d : exp -> if b then c else (if d then c else c)",
    "while_if": "fn c : com -> fn b : exp -> fn d : exp -> while b do (if d then c else c) ; c",
    "call_if_if": "fn f : com -> com -> fn b : exp -> fn e : exp -> "
                  "if b then f skip else (if e then f skip else f skip)",
    "if_if_if": "fn c : com -> fn b : exp -> fn d : exp -> fn e : exp -> "
                "if b then c else (if d then c else (if e then c else c))",
    "call_if": "fn f : com -> com -> fn b : exp -> if b then f skip else f skip",
    "seq_use3": "fn c : com -> c ; c ; c",
    "dropped": "fn c : com -> fn x : exp -> fn d : com -> c ; d",
}

DESIGN_DIGESTS = {
    "count_to_zero": "b3e37377e9ebeeb79068ce8c364731cfb892a5de071905b814a29409865b1d49",
    "loop": "e65dc241e09c8fa7afbddd38b3cee8e1336b391fe921015171da2fd72291065a",
    "par_pair": "a8572e75363737ca736797af717bfd90f6a2bd55c80d457a20a9cbcd0e9ba722",
    "seq": "5f5e20b2c737d35172f9840d930edf0e8864632a18e4713edee88f84ee523533",
    "shared_twice": "4efec63ff779f045bd049adf1ac7fbe90c52254010844c064759e949845956a1",
    "true": "c945e417d044422623a5563491398ee7cc184db548f7bf728b3df6f2c9ad578d",
    "seq2": "001340193d65da831b8a8dc27145ad71d5c73897f78db73d10c49d3a9ce62677",
    "seq3": "c7b3b00b55fc9fce0b78d6c64fc0ccbb8affe09083f9a6a8b1b3e59a98745992",
    "seq4": "de3bce8b4040a7352c30ce4dc1b6636c6915ec812e06346b0f32db0a5610b93c",
    "seq5": "12355d62886882dff58ec6491c1ae4c5b0452e3961cd13f0a3f13935bb6ceea4",
    "par2": "2f69c22c4914a3345504f89aab447f55ca65b9e0855720c006cc0794bb51fb70",
    "par3": "fa9ef465f83df16a57a399a0532a0611052840549be807c1324ee0af418c0684",
    "par4": "9804c897985023cb00f4019784a2780ec42833fa4e15a123bb6d186069612107",
    "if": "b447f1f5a1d27d54b7f057afc7b5e417c2ebd66ea3fda80a55d5da1e31bf9811",
    "newloop": "485e9a5d96931201ee0e3ddd544a92d88e76d7c02b6fd1f28ac7e744df9d17bf",
    "pair_seq": "4ad642d7d197904ec73ea9717b642f6061f71c61d612785255dc6735db28fcb1",
    "and3": "08e9ed666eefb7f1571aaa3abc0a48fab9e9447c1081afe302618df9ca29a935",
    "and4": "4812f69c8ea0d5bb43bde18770f2cef5aca66a83fc9a13817b005dd07fd6a186",
    "cell_fst": "69f518424f3173f74c2cf9f18536a44d8c1dff01489d79070f50f019abcb2a33",
    "if_if": "357a67cb2182fd705e249676b86c53cc3a003ecd93b0cfc1a2d8dafc56b57255",
    "while_if": "b3883a591294e0ec585a3c4f20aab7fd2cd949bd26998f4cad55d8affa9b8a98",
    "call_if_if": "9ad6a3ca23d0ba8d35995d011adf17ad43045d5edf216d254fb535a2d1d85a7a",
    "if_if_if": "727cebf7958fd2f2ed92bca1200076f1a52766012750c3875d8141053dd93c64",
    "call_if": "7861de8896a427144331317f5a21c8b3d1384daee11b45e64fd5cb04fb638eaf",
    "seq_use3": "34693864cbd79d591a7113ab186a83caa972af54e54c58e5cf59828d7b4c5ec0",
    "dropped": "2fe2be1ed8d75c31079335691c7b02dfc782a6903b92fdc5615b4a2cd6a1ecb2",
}

DIAGONAL_DIGESTS = {
    "com": "55e44b60008b02f2dee0ed6182505be90447fccf623ed865bd349a63e73b88de",
    "exp": "2c6ceae62fcd5601e387d79d39b27c91af7bf38e50d2b3409344374ed7979e06",
    "cell": "f45c8dc65afd090f9b116fc09abe97735bd445308d0a01a4d15d22c080838576",
    "com -> com": "98dfb0901e4cc49daff4b0f9be6cdd2a2f8ec377c98d5b9ee4c42013f0107cea",
    "exp -> com": "ff1f367a85bb372d4f70ae5cbe56496b070a0db75140f34daea71d1faefe30fc",
    "com -> exp": "7b3042da69507bd360a28ee3d540dca3e2776546b077eba71ca449dca60059d9",
    "exp -> exp": "8ee52737ba27bb10e41cc8c958fe3b643a6d943b9612e7b37af071703f19b038",
    "com -> com -> com": "7bcb5df8394265a1f95576f659b3e276d35a818a8d4e018deeb82d92eeb0fdeb",
    "(com -> com) -> com": "bd99cd12e66379012223aab8d0a2803dcf05cae739168425d1ad3e7ce1394740",
    "(exp -> com) -> com": "edad6dcc2ff296ef108ad0f159796a336edc8d3b5af959c5e529fb014aaedd7d",
    "exp -> exp -> exp": "bf9ceb7018f417fdaa2fc8eef00dff55928602c5e05ee765f6bb05c10bfafab8",
    "cell -> com": "ce5013761787722af0971199f5ad289fac338e8da6c6c59440d2357e2211b2c4",
    "com * com": "fb80611e82e4f94b35420d5b4b04a139dfdf62c270935863d9e53e615b010240",
    "com * exp": "02ee2adf3633dc66ec9acee1bfb33e18d12d7c60c898dc5f1a9c88a81da60f80",
    "exp * exp": "2cff5400f61aeac8d2da765ac1b6e01cc44a2a23a3415235316fc3937839cea3",
    "com * com * com": "4eee2056c0e6c74a4c65fd2786dd5d4047e7c088cb0bcced8e65ff01ae1f5629",
    "com -> cell": "87dba05a56c436f06d4586282274094229cc5548f01e1ac8f44fbebe8b20d56a",
    "cell * exp": "ec9dc8684279a1dc6608f9d6da5ce43db0c4e06916425310e7cd5f38f9db2f05",
    "cell * cell": "e9dc1bc5a9cb0638d54f036aaf553d140f41f64357977cd648ae3fcc635b099c",
}

MANAGER_DIGESTS = {
    "com": "e1e479d991657cb15a094cde5118b1abc85e7b7c24b8dbef67ce2542d6f96c01",
    "exp": "28013d39393f02600c4d1da26ede0210ee396fc6fb357737104a4618ecf25327",
    "cell": "0cdc60a4827861709a2f221da04ba217db94c2bb2a6f57545dd01607b45f917f",
    "com -> com": "31b589613d501843f400662126c63a48ce515bbf19a29e64577a8ce16e8eb8d1",
    "exp -> com": "5ef781e5b7d73d7dbf346e4953ace6670efd2643898320134045b0230212a48e",
    "com -> exp": "88390c5257f7cf1e2cd232d0b9ba1fbe56b706cdfdb249c8de2e1ee92aae76db",
    "exp -> exp": "d1415dce150ca22b737631f1221d75c50942bfa6637479df2e6eb8f3c9a7034e",
    "com -> com -> com": "f3f248a11d9ce01f3f27817401a2b94599c83a48f47c4a5a4e02ab9b01e0ca89",
    "(com -> com) -> com": "6e2f628e6995e46b6658354d3bdc84700eb0648937cf51e8f9ac5cd161de51d5",
    "(exp -> com) -> com": "14eaad7aec779cf5b26ca5c2c184f4baa05974c808a7e0294f64392460bc55d3",
    "exp -> exp -> exp": "a8baefc164274358dff4c4af962b35314ec7fd18f1899230d439bed9a5708469",
    "cell -> com": "d4624cceb4705039ccaeacbc4f96200c120c7ec573812a0f76bfdec6d7d57b22",
    "com * com": "4ad642d7d197904ec73ea9717b642f6061f71c61d612785255dc6735db28fcb1",
    "com * exp": "9a190fc212e8126503c20a7083c7c4a52d8528b9d78e08e9149b00aa18603114",
    "exp * exp": "26efaf71f0d642ba5b2f80fcb7e9c44890d83b7d9f4553f0f6cad04c12a24f54",
    "com * com * com": "7825830373a2c3f777deafd9bb131a2c43f765e393266b9fd1100ee6d6a31f76",
    "com -> cell": "4c9c165a6705a194a0f3632fe6e9514db2084b4484a86c79b0084c692bd10560",
    "cell * exp": "9a26db71cad13faa3ecce152fdf9eb63e1922e584402702055c4960e43e56916",
    "cell * cell": "ada353d2df9ffe169eb4f5fcf52e9badfe123684256366f4fa776d608af874b7",
}

CLI_DIGESTS = {
    "compile count_to_zero": "15c1b1831b974f135560cee80e39ff7b5cd49527cd616facd3e88603329a4aad",
    "compile --json --dot count_to_zero": "bc5408fa35493fd25c082b65965532153f19d34211a52810b2f151b4a505f7a1",
    "ir count_to_zero": "a4c38d11ee2dd6583cb1b81645be54e26700a231c1085adb857ca6777dc5608c",
    "ir --sync count_to_zero": "71cdb078be3c20a76acbfae5d1d11149cd8062cdb66eec6637fba9e19d06fc84",
    "compile loop": "1cf3de34527444ea6096627c05044952229cf596a34026f8732cfa32109f6ff1",
    "compile --json --dot loop": "3f67fb67b093a277c60568c96548f455f5de5a70afccbe02e067c05afc1f90c5",
    "ir loop": "fe579f71b39a72533b3422e26d2df24b292128f94e602bdb038e36a12ad0b692",
    "ir --sync loop": "3d495de1750f4f16d8f45132fb97136b0fa6976e9038ecc91921a3f624b8183d",
    "compile par_pair": "d5ae4ed987866337fa2f737b87bf048413f8f8f037a34462dd6bec9b325603b9",
    "compile --json --dot par_pair": "8db3c9aa2bb668d7e46895dfda9a36e582aa94886ae503ae28cd47bb782d465e",
    "ir par_pair": "dc5eda12041231885092586b5de2e36ae629f9884610b216e37713f307b48e19",
    "ir --sync par_pair": "bf354967bd9fa1311adc724874bc5accb1a3bf62d8f88ee6303967cb219d815d",
    "compile seq": "f46fb5e56ed2f4958984f17e1fd9619c271ce1b4d39e78a44acafdfd2cb12d39",
    "compile --json --dot seq": "7ea614e1d9c55d265640063079c3749f8aed4c2608f194d77dd83ad0cf593b79",
    "ir seq": "eab6ae10bd83e6d36912c6996a906994d98452fca956ef720e4ca33f26d87a2b",
    "ir --sync seq": "b6db562b33b059e5807e45046f38373321e3b986b8c35aa9d5a7aeda3df02e1d",
    "compile shared_twice": "31a4c079fad359d119086c5d8c2c43475e6b19b263756aeb8552bd09576511d4",
    "compile --json --dot shared_twice": "10ad710fdfe17b905a05c3880ae5e3c94b8efbdbf6371cdc45732ce1e4aa37a8",
    "ir shared_twice": "0dc3b723972b64b3aff1d4912f6916d460b62e730f437be114f93a455b8e0179",
    "ir --sync shared_twice": "ad8cbab39da34a8c8e5cf67fd01b3c438beaf21da8809297db9cc445a7c218da",
    "compile true": "7d3994ca117698996e69f928088c172c786957cdb1d7d6ef534b5c494d91c851",
    "compile --json --dot true": "59cb40dcf332f0ff046ae2862caec96b3fdfcf178c400a91536d58cc16579c9f",
    "ir true": "da2d3d9f0e7cce34e945d957f34a0cadd7d80e07377cb2e08bbc70ea6eaa276c",
    "ir --sync true": "10e23f2e06719a1f2b9590d58589b4b679b770ecf66b42693db70e403e9805f5",
    "compile --no-minimize count_to_zero": "15c1b1831b974f135560cee80e39ff7b5cd49527cd616facd3e88603329a4aad",
    "ir --sync --no-minimize count_to_zero": "71cdb078be3c20a76acbfae5d1d11149cd8062cdb66eec6637fba9e19d06fc84",
    "compile --no-minimize loop": "a3352a64f5f6589c38d5034fdd492bbdd2760969bfbbc8e7519cdb3e29f7453b",
    "ir --sync --no-minimize loop": "719f1c33c8a0e9a51eb1516b50800cca7a2f58d5dd6259854247a3bdead11f23",
    "compile --no-minimize par_pair": "f17d79e76403977378505d252612aa080c8d15deec6f86f1ac0c63a4e71a9ddb",
    "ir --sync --no-minimize par_pair": "a1ff9f43ffa24a8fbb247de58c576173586c268857f719fc29c007e889c0fe35",
    "compile --no-minimize seq": "cf60533f0904be3e90be0dbe63059290a8eb29a9c64b7140bfe15c46cb43cac4",
    "ir --sync --no-minimize seq": "7482d7592e2c2a070a0723adb9d97011cbc346f5f5ece20a6811b4ea026695c3",
    "compile --no-minimize shared_twice": "10e09cc66b659328d8f85d2163f63a95033c9b443a1487421e038cd47cbcde4b",
    "ir --sync --no-minimize shared_twice": "8707caaf9ed72362439f4e1814c8eb412665268a49cc45abfc35441019dee380",
    "compile --no-minimize true": "7d3994ca117698996e69f928088c172c786957cdb1d7d6ef534b5c494d91c851",
    "ir --sync --no-minimize true": "10e23f2e06719a1f2b9590d58589b4b679b770ecf66b42693db70e403e9805f5",
    "sim --json shared_twice": "27346e37809407dfed4cc015ba75999a1fbac4d896054e03f100f032fb567c72",
    "sim --json concurrent_calls": "06ca0dd196ad7f59c4cfbb55c4f211657e335e9274b3dba819635c2cbf013576",
    "sim --json nested_call": "7f7daeb7ff51e9b1884113bd7d56b83fab242011e8526901722e23e4de25659d",
    "monitor --json nested_call": "375a657815a0f3d379c745ca3e27e27b86edf43549419c141980ea6f21e14356",
    "monitor --json shared_twice": "cead92c72aef72228cce017525b92b4f641495578ebc757090a1c0c87afa25b4",
}

# the ``&`` and ``|`` operators of the Verilog of every program above whose
# design compiles (3,749 before protocol don't-cares reached the next-state
# logic), so that more gates fail here and not only in the benchmark
VERILOG_OPS = 1732

CONST_DIGESTS = {
    "skip": "7fe6a6a2a9b8d9316df1ad1347518a6c66bb121cc29fd29dc8231bd9d62b554a",
    "1": "9853b9e8588dff67dd2b27b3362197d33a3f53af720d07d0fed8a69c38032458",
    "0": "779f040dd2a4ec78171224cdaf6f7496f3a2913dda05d76f0fbc49193f2435b7",
    "seq": "94555d52da6931e24bc3f72420d63da777756f77d3bb439dd6dd7f686d29b75c",
    "par": "cbe5bbb5298924d097b316e55ca93a227566c12e9147472fe9fa8fd70a8b88f8",
    "and": "498bfb2869d1d81e0f70b22295274669aa911c669cb56ed2cdf77846168b4c4a",
    "or": "8fd54b49b890a06345602a10061e912bb0f89c4e6f2d1c149e9e4c56875dbc24",
    "xor": "4e42f33c954c1267c298eaeab7f365e4b2fe7d2d3fa436f81962ae34e47521a1",
    "eq": "ab5421be823c12d39bb5cd7a09fd4eaca18f09057a1876e6b83628a34e1a3efe",
    "not": "d9f2e8cd90b873279537ad706a2c9a43b81d59a5011b6abbea646d93c98bc101",
    "if": "cadaa439e41d1bcea2c2ae6fac0475a0cb68b4209abb0cf9b6574b993c16be09",
    "while": "daf073f2ddaa28cd41dd7b7871ec80f0b7020615afbce57d5dc47789f0b5bd6e",
    "asg": "3805ba4c0e9282896da6e7e41e56e985645df55fafed88bf186b5ba57b29ce7b",
    "der": "2e4d3ad691b45d69b2962eccdd1428fea0ce34f7faa50520adf8d35c62e03c4d",
    "newvar": "7371ad3066d20533ba62651bf41f672fc3d3d14bb525365f8fbb4d26e51b69de",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _error(e: Exception) -> str:
    return f"{type(e).__name__}: {e}"


def design_text(name: str) -> str:
    """``repr(design.ties)`` and the Verilog, or the error that stopped them."""
    try:
        design = compile_design(PROGRAMS[name], name=name)
    except Exception as e:
        return _error(e)
    try:
        verilog = design_verilog(design)
    except Exception as e:
        verilog = _error(e)
    return repr(design.ties) + "\n" + verilog


def _demo_runs() -> dict[str, list[str]]:
    runs = {}
    for p in sorted(DEMOS.glob("*.sci")):
        runs[f"compile {p.stem}"] = ["compile", str(p)]
        runs[f"compile --json --dot {p.stem}"] = ["compile", str(p), "--json", "@json",
                                                 "--dot", "@dot"]
        runs[f"ir {p.stem}"] = ["ir", str(p)]
        runs[f"ir --sync {p.stem}"] = ["ir", "--sync", str(p)]
        runs[f"compile --no-minimize {p.stem}"] = ["compile", str(p), "--no-minimize"]
        runs[f"ir --sync --no-minimize {p.stem}"] = ["ir", "--sync", "--no-minimize", str(p)]
    runs["sim --json shared_twice"] = [
        "sim", str(DEMOS / "shared_twice.sci"),
        "--stimulus", str(DEMOS / "shared_twice.stim"), "--json", "@json"]
    for wire in ("concurrent_calls", "nested_call"):
        runs[f"sim --json {wire}"] = [
            "sim", str(DEMOS / f"{wire}.wire"), "--stimulus", str(DEMOS / f"{wire}.stim"),
            "--unsafe-wire", "--json", "@json"]
    for trace in ("nested_call", "shared_twice"):
        runs[f"monitor --json {trace}"] = [
            "monitor", str(DEMOS / f"{trace}.trace"), "--share", "com -> com",
            "--json", "@json"]
    return runs


DEMO_RUNS = _demo_runs()


def cli_text(argv: list[str], tmp_path: Path, capsys) -> str:
    """Exit code, stdout, stderr and each ``@name`` file the run wrote."""
    files = [tmp_path / a[1:] for a in argv if a.startswith("@")]
    code = main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv])
    out, err = capsys.readouterr()
    return "\n".join([str(code), out, err] + [f.read_text() for f in files])


def const_text(name: str) -> str:
    m = const_automaton(name)
    return repr([(s, [(m.arena.name(mv), t) for mv, t in row.items()])
                 for s, row in m.transitions.items()])


def diagonal_text(ty: str) -> str:
    m = diagonal(parse_type(ty))
    return repr([(s, [(m.arena.name(mv), t) for mv, t in row.items()])
                 for s, row in m.transitions.items()])


def manager_text(ty: str) -> str:
    try:
        m = manager_machine(parse_type(ty))
    except Exception as e:
        return _error(e)
    names = lambda ms: sorted(m.arena.name(x) for x in ms)
    return repr([(s, names(i), names(o), d) for s, row in sorted(m.transitions.items())
                 for i, (o, d) in sorted(row.items(), key=lambda r: (len(r[0]), names(r[0])))])


@pytest.mark.parametrize("name", PROGRAMS)
def test_design_digest(name):
    assert _sha(design_text(name)) == DESIGN_DIGESTS[name]


def test_gate_operators_stay_within_their_total():
    total = 0
    for name, source in PROGRAMS.items():
        try:
            verilog = design_verilog(compile_design(source, name=name))
        except (CompositionStall, DesignError):
            continue  # pair_seq, cell_fst and the three combinational cycles
        total += verilog.count("&") + verilog.count("|")
    assert total <= VERILOG_OPS


@pytest.mark.parametrize("run", DEMO_RUNS)
def test_cli_digest(run, tmp_path, capsys):
    assert _sha(cli_text(DEMO_RUNS[run], tmp_path, capsys)) == CLI_DIGESTS[run]


@pytest.mark.parametrize("name", CONSTANTS)
def test_constant_rows_digest(name):
    assert _sha(const_text(name)) == CONST_DIGESTS[name]


@pytest.mark.parametrize("ty", SHARED_TYPES)
def test_diagonal_rows_digest(ty):
    assert _sha(diagonal_text(ty)) == DIAGONAL_DIGESTS[ty]


@pytest.mark.parametrize("ty", SHARED_TYPES)
def test_manager_rows_digest(ty):
    assert _sha(manager_text(ty)) == MANAGER_DIGESTS[ty]
