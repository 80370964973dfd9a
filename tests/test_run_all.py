import hashlib
import importlib.util
from pathlib import Path

from hlk import fileio

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run_all = load_script("run_all")
compare_reports = load_script("compare_reports")

# sha256 of fileio.canonical_dumps of each run_all report, reduced by
# compare_reports.load_reports (no timings, input paths as file names).
# llgen-g2-k2 pins the census [3, 3]: so(4) = sl2 + sl2 over Q(i), as
# disc phi is a square there.  (The seed census it replaced read [6].)
REPORT_DIGESTS = {
    "assemble-genus2.json":
        "0644fac627ccd6ca457b2682babca0757779572c9510a769e09a23706a6721b4",
    "gkcoh-sl2.json":
        "2a411f659e9a48d8c12f00072246eb955accfb3ad2cc17832a596c81811cd1ad",
    "lefschetz-abelian-surface.json":
        "8a373ff0bedd03d4884c3742e493412a3871918601c7063d48c05046f4a41329",
    "lefschetz-g2-k2.json":
        "6ebc913b3c4fcad45b47a546d05784f3fc52e0617bb8ceaff0d33e7a6ff9d01c",
    "lefschetz-g2-k3.json":
        "9ff2e845fe7b928f1956fc93d0ef5bf029868500f5a58e0876f2ad86f403c1b4",
    "lefschetz-g2-k4.json":
        "421aa80783d4b85c9303c6b7ea31ec7691dbf0a634b50d6b55378fc2e5b145ca",
    "lefschetz-g2-k5.json":
        "a0445fd3da35623342c8eef71b2d5e94e10acd79869378f19d932dbbdcfc69d5",
    "lefschetz-g2-k6.json":
        "abcb7475dd20fdd982e94cb6ffdcb06e44c7ad241d53a3c15b6bf34b97b23384",
    "lefschetz-k3-mock.json":
        "0c78b523789970e519f209c57df5b7c3ec1844b8eff0518fcbc47dab73520aac",
    "lefschetz-torus.json":
        "cd5206d842ef5f2e95fce5b67c8b0c6489c7bcefd9cac616acee39b259179f8c",
    "llgen-g2-k2.json":
        "6d2ed1169f56961146f36f27ea8e262619025ad77ba567bd4529e1df2780fe3b",
    "llgen-g2-k3.json":
        "4262a4f61d751b6054fcda698833be7cc274195190554ff35e90f94496e73624",
    "llgen-g2-k4.json":
        "a42d4b43606ea082aaa26059c32bf4a41c0c86f37393e65eedc474a6aa3203cc",
    "llgen-g2-k5.json":
        "cd46d8483ed9f7fc2a5ae0081a7b66001466b54406e6f7b86f30ede6f7dec285",
    "llgen-g2-k6.json":
        "aa1e825f012d702421cce1297d9cac433cc2efb7d8f3510c1e3136d687423312",
    "llgen-s1s2-N3.json":
        "d95dbf7e05682c68e1c093292ebe8753efd96394a8e52d7de941a242caff0833",
    "llgen-s1s2-N5.json":
        "17e199226347bcc10b9255f2d12e380af77ac705b12bbf87eb68dfd06c577e52",
    "validate-all.json":
        "5e0c4eaa4fac1b89dde249351734fe1ae740c5dde5621a9004243ed9cffb2bf6",
}


def test_run_all_reports_are_pinned(tmp_path):
    assert run_all.main(["--out", str(tmp_path)]) == 0
    reports = compare_reports.load_reports(str(tmp_path))
    assert {name: hashlib.sha256(fileio.canonical_dumps(doc).encode())
            .hexdigest() for name, doc in reports.items()} == REPORT_DIGESTS
