"""CLI and object-store tests (run in-process against a temp workspace)."""

from __future__ import annotations

import argparse
import errno
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from helpers import ONE, S3, Z2, Z3, Z4, invalid_butterfly_json, z4_extension_butterfly

import butterflies
from butterflies import cli, fingroup, jsonio
from butterflies.butterfly import identity_butterfly, to_fractor
from butterflies.cli import Workspace, main, parse_group_spec
from butterflies.extension import CLASSIFY_BOUND, aut_xmod, conjugation_xmod, discrete_xmod, factor_set_oracle


@pytest.fixture()
def ws(tmp_path):
    return tmp_path / "store"


@pytest.fixture(autouse=True)
def printed_as_json_dumps(monkeypatch):
    """Every JSON text that the CLI prints in these tests is what
    json.dumps(indent=1, sort_keys=True) writes."""
    indented = jsonio.indented

    def checked(data):
        text = indented(data)
        assert text == json.dumps(data, indent=1, sort_keys=True)
        return text

    monkeypatch.setattr(jsonio, "indented", checked)


def run(ws, *argv):
    return main(["--workspace", str(ws), *map(str, argv)])


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_process(ws, *argv, stdout=subprocess.PIPE, timeout=None):
    """Run the CLI in a fresh interpreter, so that stderr shows any traceback."""
    src = str(Path(butterflies.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "butterflies.cli", "--workspace", str(ws), *map(str, argv)],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=timeout,
    )


# bytes that no index.json of earlier versions could hold
GARBAGE_INDEXES = [
    b"5",
    b'{"abc": 5}',
    b"[]",
    b"not json",
    b"\xff",
    b'{"ab/../../outside": {"kind": "group"}}',
    pytest.param(b"[" * 200000, id="deep"),
    pytest.param(b"1" * 5000, id="long-int"),
]


# the two steps of a store write: the temporary file, and its rename onto the object's name
STORE_STEPS = [(tempfile, "mkstemp"), (os, "replace")]


def failing_on(monkeypatch, module, name: str, call: int) -> None:
    """Make the `call`-th call of `module.<name>` fail as a full disk would."""
    calls = []
    real = getattr(module, name)

    def fail(*args, **kwargs):
        calls.append(args)
        if len(calls) == call:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, fail)


class TestStore:
    def test_round_trip_bit_identical(self, ws):
        store = Workspace(ws)
        B = z4_extension_butterfly()
        ref = store.put(B)
        again = store.put(B)
        assert ref == again  # content addressing
        data = store.get(ref)
        assert jsonio.canonical_bytes(data) == jsonio.canonical_bytes(jsonio.to_jsonable(B))

    def test_prefix_lookup(self, ws):
        store = Workspace(ws)
        ref = store.put(Z4)
        assert store.get(ref[:10]) == store.get(ref)

    def test_ls(self, ws):
        store = Workspace(ws)
        store.put(Z4)
        store.put(z4_extension_butterfly())
        kinds = {k for _, k in store.ls()}
        assert kinds == {"group", "butterfly"}


class TestValidate:
    def test_valid_butterfly_exit_0(self, ws, tmp_path, capsys):
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        assert run(ws, "validate", path) == 0

    def test_invalid_butterfly_names_condition(self, ws, tmp_path, capsys):
        data = jsonio.to_jsonable(z4_extension_butterfly())
        data["rho"] = [0, 0, 0, 0]
        data["kappa"] = [0]
        # make kappa;rho nonzero by pointing kappa at a non-identity: D(Z2) top
        # is trivial, so break condition (ii) instead: sigma not surjective
        data["sigma"] = [0, 0, 0, 0]
        path = write_json(tmp_path, "bad.json", data)
        assert run(ws, "--json", "validate", path) == 1
        out = json.loads(capsys.readouterr().out)
        assert any("ii-extension" in f["condition"] for f in out["findings"])

    def test_malformed_json_exit_2(self, ws, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert run(ws, "validate", path) == 2

    def test_unknown_kind_exit_2(self, ws, tmp_path):
        path = write_json(tmp_path, "odd.json", {"hello": 1})
        assert run(ws, "validate", path) == 2

    # the top-level kind is read, never guessed from the fields present: a
    # butterfly without a kind, or with a kind that is no loader's name, is refused
    @pytest.mark.parametrize("kind", [None, ["butterfly"], "bfly"], ids=["missing", "list", "unknown"])
    @pytest.mark.parametrize("command", ["validate", "compose"])
    def test_kind_not_a_known_string_exit_2(self, ws, tmp_path, capsys, command, kind):
        data = {**jsonio.to_jsonable(identity_butterfly(conjugation_xmod(Z2))), "kind": kind}
        if kind is None:
            del data["kind"]
        path = write_json(tmp_path, "b.json", data)
        assert run(ws, command, *[path] * (2 if command == "compose" else 1)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: no loader for kind") and "Traceback" not in err

    def test_validate_group_and_xmod(self, ws, tmp_path):
        path = write_json(tmp_path, "g.json", jsonio.to_jsonable(Z4))
        assert run(ws, "validate", path) == 0
        path2 = write_json(tmp_path, "x.json", jsonio.to_jsonable(conjugation_xmod(Z2)))
        assert run(ws, "validate", path2) == 0

    def test_validate_fractor_exit_0(self, ws, tmp_path, capsys):
        F = to_fractor(identity_butterfly(conjugation_xmod(Z2)))
        path = write_json(tmp_path, "f.json", jsonio.to_jsonable(F))
        assert run(ws, "--json", "validate", path) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True


class TestValidateTwoGroup:
    def test_unit_not_a_section_exit_1(self, ws, tmp_path):
        from butterflies.xmod import denormalize

        data = jsonio.to_jsonable(denormalize(conjugation_xmod(Z2)))
        data["e"] = [0, 0]
        proc = run_process(ws, "validate", write_json(tmp_path, "t.json", data))
        assert proc.returncode == 1
        assert "unit-source-target" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_nonabelian_group_over_a_point_exit_1(self, ws, tmp_path):
        data = {
            "kind": "2group",
            "G1": jsonio.to_jsonable(S3),
            "G0": jsonio.to_jsonable(ONE),
            "d": [0] * 6,
            "c": [0] * 6,
            "e": [0],
        }
        proc = run_process(ws, "validate", write_json(tmp_path, "t.json", data))
        assert proc.returncode == 1
        assert "interchange" in proc.stdout
        assert "Traceback" not in proc.stderr


class TestMalformedInput:
    def test_xmod_action_not_a_list_exit_2(self, ws, tmp_path, capsys):
        data = jsonio.to_jsonable(conjugation_xmod(Z2))
        data["action"] = 5
        assert run(ws, "validate", write_json(tmp_path, "x.json", data)) == 2
        assert "'action'" in capsys.readouterr().err

    def test_monoidal_f2_out_of_range_exit_1(self, ws, tmp_path, capsys):
        from butterflies.weakmap import all_set_sections, extract_monoidal

        B = z4_extension_butterfly()
        data = jsonio.to_jsonable(extract_monoidal(B, all_set_sections(B)[0]))
        data["F2"][1][1] = 99
        assert run(ws, "validate", write_json(tmp_path, "m.json", data)) == 1
        assert "F1/F2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [("validate",), ("weakmap", "assemble")])
    def test_monoidal_f1_off_its_endpoints_exit_1(self, ws, tmp_path, command):
        # F1(0) = 1 is not an endo-arrow of F0(0), so F1 u and F1 v need not compose
        from butterflies.weakmap import identity_monoidal
        from butterflies.xmod import denormalize

        data = jsonio.to_jsonable(identity_monoidal(denormalize(conjugation_xmod(Z2))))
        data["F1"][0] = 1
        proc = run_process(ws, *command, write_json(tmp_path, "m.json", data))
        assert proc.returncode == 1
        assert "functor-source" in proc.stdout + proc.stderr
        assert "Traceback" not in proc.stderr

    # Z2 written with its identity at index 1; the maps beside it index that table
    SHIFTED_Z2 = {"kind": "group", "name": "Z2", "table": [[1, 0], [0, 1]]}

    @pytest.mark.parametrize(
        "field, boundary",
        [
            ("G0", [0, 0]),  # not a homomorphism as written: it sends G to the non-identity
            ("G", [1, 0]),  # the identity map of Z2 as written
        ],
    )
    def test_nested_group_identity_off_zero_exit_2(self, ws, tmp_path, capsys, field, boundary):
        data = jsonio.to_jsonable(conjugation_xmod(Z2))
        data[field] = self.SHIFTED_Z2
        data["boundary"] = boundary
        assert run(ws, "validate", write_json(tmp_path, "x.json", data)) == 2
        assert "identity at index 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [("validate", "DIR"), ("classify", "DIR", "Z2"), ("compose", "DIR", "DIR")])
    def test_directory_argument_exit_2(self, ws, tmp_path, argv):
        proc = run_process(ws, *(tmp_path if a == "DIR" else a for a in argv))
        assert proc.returncode == 2
        assert "unreadable" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_utf8_file_exit_2(self, ws, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"kind": "group", "name": "Z\xe9"}'.encode("latin-1"))
        proc = run_process(ws, "validate", path)
        assert proc.returncode == 2
        assert "unreadable" in proc.stderr
        assert "Traceback" not in proc.stderr

    # JSON that the decoder refuses with no JSONDecodeError: nesting past the
    # recursion limit, and an integer past the digit limit of int()
    @pytest.mark.parametrize(
        "text", ["[" * 200000, '{"kind": "group", "table": [[' + "1" * 5000 + "]]}"], ids=["deep", "long-int"]
    )
    @pytest.mark.parametrize("where", ["file", "object", "old-object"])
    def test_json_past_the_decoder_limits_exit_2(self, ws, tmp_path, text, where):
        ref = Workspace(ws).put(Z4)
        stored = ws / "objects" / f"{ref}.group.json"
        target = {"file": tmp_path / "x.json", "object": stored, "old-object": ws / "objects" / f"{ref}.json"}
        if where == "old-object":  # the file name of earlier versions, which holds no kind
            stored.unlink()
        target[where].write_text(text)
        proc = run_process(ws, "validate", target["file"] if where == "file" else ref[:8])
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: {target[where]}: malformed JSON: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("kind", ["group", "xmod"])
    @pytest.mark.parametrize("name", [5, [1], None])
    def test_name_not_a_string_exit_2(self, ws, tmp_path, capsys, kind, name):
        data = jsonio.to_jsonable(Z2 if kind == "group" else conjugation_xmod(Z2))
        data["name"] = name
        assert run(ws, "validate", write_json(tmp_path, "x.json", data)) == 2
        assert capsys.readouterr().err == "error: field 'name' must be a string\n"

    # a present derived block must be an object: an empty or falsy one once loaded as no block
    @pytest.mark.parametrize("derived", [[], 0, False, "", None])
    def test_fractor_derived_not_an_object_exit_2(self, ws, tmp_path, capsys, derived):
        data = jsonio.to_jsonable(to_fractor(identity_butterfly(conjugation_xmod(Z2))))
        data["derived"] = derived
        assert run(ws, "validate", write_json(tmp_path, "f.json", data)) == 2
        assert capsys.readouterr().err == "error: field 'derived' must be an object\n"

    def test_missing_name_keeps_its_default(self, ws, tmp_path, capsys):
        data = jsonio.to_jsonable(conjugation_xmod(Z2))
        del data["name"], data["G"]["name"]
        assert run(ws, "validate", write_json(tmp_path, "x.json", data)) == 0
        X = jsonio.from_jsonable(data)
        assert (X.name, X.G.name) == ("", "G")


class TestInvalidOperands:
    """Operands are validated once on load: an invalid one exits 1 and names a
    failed condition instead of reaching an operation that assumes validity."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("compose", "{bad}", "{good}"),
            ("compose", "{good}", "{bad}"),
            ("flip", "{bad}"),
            ("span", "{bad}"),
            ("weakmap", "extract", "{bad}", "--section", "0,1,2"),
        ],
    )
    def test_invalid_butterfly_exit_1(self, ws, tmp_path, capsys, argv):
        paths = {
            "bad": write_json(tmp_path, "bad.json", invalid_butterfly_json()),
            "good": write_json(
                tmp_path, "good.json", jsonio.to_jsonable(identity_butterfly(conjugation_xmod(Z3)))
            ),
        }
        assert run(ws, *(arg.format(**paths) for arg in argv)) == 1
        err = capsys.readouterr().err
        assert "i-complex" in err and "right-wing" in err
        assert "Traceback" not in err

    # Z4 -> Z2 with Z2 acting by inversion: precrossed, but not Peiffer
    NOT_PEIFFER = {
        "kind": "xmod",
        "G": jsonio.to_jsonable(Z4),
        "G0": jsonio.to_jsonable(Z2),
        "boundary": [0, 1, 0, 1],
        "action": [[0, 1, 2, 3], [0, 3, 2, 1]],
    }

    def test_identity_of_non_crossed_module_exit_1(self, ws, tmp_path, capsys):
        assert run(ws, "identity", write_json(tmp_path, "x.json", self.NOT_PEIFFER)) == 1
        assert "peiffer" in capsys.readouterr().err

    def test_split_of_morphism_between_non_crossed_modules_exit_1(self, ws, tmp_path, capsys):
        data = {
            "kind": "xmod-morphism",
            "dom": self.NOT_PEIFFER,
            "cod": self.NOT_PEIFFER,
            "p": [0, 1, 2, 3],
            "p0": [0, 1],
        }
        assert run(ws, "split", write_json(tmp_path, "m.json", data)) == 1
        assert "underlying-xmod:peiffer" in capsys.readouterr().err

    def test_split_of_invalid_morphism_exit_1(self, ws, tmp_path, capsys):
        # C(Z2) -> D(Z2) with p = 0 and p0 = id: the boundary square fails
        data = {
            "kind": "xmod-morphism",
            "dom": jsonio.to_jsonable(conjugation_xmod(Z2)),
            "cod": jsonio.to_jsonable(discrete_xmod(Z2)),
            "p": [0, 0],
            "p0": [0, 1],
        }
        assert run(ws, "split", write_json(tmp_path, "m.json", data)) == 1
        assert "square" in capsys.readouterr().err

    def test_wrong_kind_still_exit_2(self, ws, tmp_path):
        path = write_json(tmp_path, "x.json", jsonio.to_jsonable(conjugation_xmod(Z2)))
        assert run(ws, "flip", path) == 2


class TestCommands:
    def test_identity_and_compose_witness(self, ws, tmp_path, capsys):
        xmod_path = write_json(tmp_path, "x.json", jsonio.to_jsonable(discrete_xmod(Z2)))
        assert run(ws, "identity", xmod_path) == 0
        ref = capsys.readouterr().out.strip()
        assert run(ws, "--json", "compose", ref, ref, "--witness", "--check") == 0
        out = json.loads(capsys.readouterr().out)
        assert out["check"]["ok"]
        assert "witness_first" in out

    def test_flip_non_flippable_exit_1(self, ws, tmp_path):
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        assert run(ws, "flip", path) == 1

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_flip_refusal_names_the_diagonal(self, ws, tmp_path, capsys, flags):
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        assert run(ws, *flags, "flip", path) == 1
        assert capsys.readouterr() == ("", "NotFlippable: the (kappa, rho) diagonal is not an extension\n")

    def test_flip_flippable(self, ws, tmp_path, capsys):
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(identity_butterfly(conjugation_xmod(Z2))))
        assert run(ws, "flip", path) == 0

    def test_split_and_span(self, ws, tmp_path, capsys):
        from butterflies.xmod import identity_morphism

        P = identity_morphism(conjugation_xmod(Z2))
        path = write_json(tmp_path, "m.json", jsonio.to_jsonable(P))
        assert run(ws, "--json", "split", path) == 0
        out = json.loads(capsys.readouterr().out)
        assert "section" in out
        bpath = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        assert run(ws, "--json", "span", bpath) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out) == {"middle", "left", "right"}

    def test_weakmap_extract_matches_library(self, ws, tmp_path, capsys):
        from butterflies.weakmap import extract_monoidal, set_section

        B = z4_extension_butterfly()
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(B))
        assert run(ws, "--json", "weakmap", "extract", path, "--section", "0,1") == 0
        out = json.loads(capsys.readouterr().out)
        M = extract_monoidal(B, set_section(B, (0, 1)))
        assert out["monoidal"]["F2"] == [list(r) for r in M.F2]
        # assemble back
        mpath = write_json(tmp_path, "m.json", out["monoidal"])
        assert run(ws, "weakmap", "assemble", mpath) == 0

    @pytest.mark.parametrize("section", ["0,99", "0,-1"])
    def test_weakmap_section_outside_e_exit_1(self, ws, tmp_path, section):
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        proc = run_process(ws, "weakmap", "extract", path, "--section", section)
        assert proc.returncode == 1
        assert proc.stderr.startswith("SectionInvalid: ")
        assert "Traceback" not in proc.stderr


class TestClassify:
    def test_spec_past_the_digit_limit_exit_2(self, ws):
        proc = run_process(ws, "classify", "Z" + "9" * 5000, "Z2")
        assert (proc.returncode, proc.stderr) == (2, "error: bad group spec: Z with a 5000-digit index\n")

    def test_z2_z2_oracle_agrees(self, ws, capsys):
        assert run(ws, "--json", "classify", "Z2", "Z2", "--oracle") == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["classes"]) == 2
        assert out["agree"] is True
        assert sorted(c["E"] for c in out["classes"]) == ["Z2xZ2", "Z4"]

    @staticmethod
    def moved(H, G, bound):
        """The oracle's classes with one cocycle moved between two of them:
        the class count stays the same."""
        classes = factor_set_oracle(H, G, bound=bound)
        classes[2].append(classes[0].pop())
        return classes

    def test_oracle_agrees_class_by_class(self, ws, capsys, monkeypatch):
        monkeypatch.setattr(cli, "factor_set_oracle", self.moved)
        assert run(ws, "classify", "Z2", "Z4", "--oracle") == 1
        assert capsys.readouterr().out.endswith("oracle classes: 4 (MISMATCH)\n")

    def test_csv_reports_a_mismatch_on_stderr(self, ws, capsys, monkeypatch):
        # the CSV row has no field for the verdict; stdout stays one CSV line
        monkeypatch.setattr(cli, "factor_set_oracle", self.moved)
        assert run(ws, "classify", "Z2", "Z4", "--oracle", "--csv") == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("Z2,Z4,4,2\n", "oracle classes: 4 (MISMATCH)\n")

    def test_csv_agreement_writes_nothing_to_stderr(self, ws, capsys):
        assert run(ws, "classify", "Z2", "Z4", "--oracle", "--csv") == 0
        assert capsys.readouterr() == ("Z2,Z4,4,2\n", "")

    def test_trivial_group(self, ws, capsys):
        assert run(ws, "classify", "1", "Z4") == 0
        assert "1 extension class" in capsys.readouterr().out

    def test_csv_summary(self, ws, capsys):
        assert run(ws, "classify", "Z2", "Z2", "--csv") == 0
        assert capsys.readouterr().out.strip() == "Z2,Z2,2,1"

    def test_bound_exceeded_exit_1(self, ws):
        assert run(ws, "classify", "Z4", "Z4", "--bound", "8") == 1

    @pytest.mark.parametrize(
        "H, G, bound, names",
        [("Z3", "Z11", 33, ["Z3xZ11"]), ("Z2", "Z17", 34, ["Z2xZ17", "D17"])],
    )
    def test_classes_named_past_order_32(self, ws, H, G, bound, names):
        # naming is bounded by the order it names, not by the catalog's largest order
        proc = run_process(ws, "--json", "classify", H, G, "--bound", bound, "--oracle")
        assert (proc.returncode, proc.stderr) == (0, "")
        out = json.loads(proc.stdout)
        assert out["agree"] is True
        assert [c["E"] for c in out["classes"]] == names

    def test_automorphism_limit_exit_1(self, ws):
        # inside |H|*|G| <= 16, but Aut(Z2^4) = GL(4,2) has 20,160 elements:
        # the search stops at the 337th and refuses before a table is built
        proc = run_process(ws, "classify", "1", "Z2xZ2xZ2xZ2", timeout=10)
        assert proc.returncode == 1
        assert proc.stderr == "BoundExceeded: automorphism_group: automorphisms of Z2xZ2xZ2xZ2: size 337 exceeds bound 336\n"

    def test_spec_bound_checked_before_building(self, ws, capsys, monkeypatch):
        def no_products(*_):
            raise AssertionError("a group spec past --bound was built")

        monkeypatch.setattr(fingroup, "direct_product", no_products)
        monkeypatch.setattr(cli, "direct_product", no_products)
        assert run(ws, "classify", "Z30xZ30", "Z2") == 1
        assert "classify_extensions: size 1800 exceeds bound 16" in capsys.readouterr().err

    def test_oracle_on_nonabelian_kernel_exit_1(self, ws):
        proc = run_process(ws, "classify", "Z2", "S3", "--oracle")
        assert proc.returncode == 1
        assert proc.stderr.startswith("TwistLeavesCocycles: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("spec", ["Z0", "Z2xZ0"])
    def test_empty_cyclic_group_exit_2(self, ws, spec):
        proc = run_process(ws, "classify", spec, "Z2")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_k4_is_no_group_spec_exit_2(self, ws, capsys):
        # V4 is the one spelling of the Klein four-group
        assert parse_group_spec("K4") is None
        assert run(ws, "classify", "K4", "Z2") == 2
        assert capsys.readouterr().err == "error: no stored object matches 'K4'\n"

    def test_group_spec_parsing(self):
        assert parse_group_spec("Z2xZ2").order == 4
        assert parse_group_spec("S3").order == 6
        assert parse_group_spec("nonsense") is None


class TestSuite:
    def test_both_suites_green(self, ws):
        assert run(ws, "suite", "--suite", "all", "--seed", "0", "--bound", "4") == 0

    def test_unknown_suite_exit_2(self, ws):
        assert run(ws, "suite", "--suite", "nosuch") == 2

    def test_fault_injection_fails(self, ws):
        assert run(ws, "suite", "--suite", "bicategory", "--bound", "4", "--fault", "compose") == 1

    def test_fault_injection_fails_in_all_suites(self, ws):
        assert run(ws, "suite", "--suite", "all", "--bound", "4", "--fault", "compose") == 1

    def test_unknown_fault_exit_2(self, ws, capsys):
        assert run(ws, "suite", "--suite", "bicategory", "--bound", "4", "--fault", "bogus") == 2
        assert "bogus" in capsys.readouterr().err

    def test_fault_of_unselected_suite_exit_2(self, ws):
        assert run(ws, "suite", "--suite", "fractions", "--bound", "4", "--fault", "compose") == 2

    @pytest.mark.parametrize("bound", [2, 3])
    def test_fault_that_never_fires_exit_1(self, ws, capsys, bound):
        argv = ("--json", "suite", "--suite", "bicategory", "--bound", bound, "--fault", "compose")
        assert run(ws, *argv) == 1
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert [f["check"] for f in report["failures"]] == ["fault-not-exercised"]

    @pytest.mark.parametrize("bound", [0, 1])
    def test_bound_below_smallest_fixture_exit_1(self, ws, capsys, bound):
        assert run(ws, "suite", "--bound", bound) == 1
        assert "BoundExceeded" in capsys.readouterr().err


class TestWorkspaceFaults:
    """A workspace that cannot hold a store, or whose object directory (its
    index) or objects are damaged, is a usage error (exit 2) for every store
    operation.  An index.json of earlier versions is ignored."""

    @pytest.fixture(params=["ls", "get", "put", "span", "classify"])
    def store_op(self, request, tmp_path):
        xmod = write_json(tmp_path, "xmod.json", jsonio.to_jsonable(conjugation_xmod(Z2)))
        butterfly = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        return {
            "ls": ("store", "ls"),
            "get": ("store", "get", "ab"),
            "put": ("identity", xmod),
            "span": ("span", butterfly),
            "classify": ("classify", "Z2", "Z2"),
        }[request.param]

    def test_workspace_is_a_file_exit_2(self, tmp_path, capsys, store_op):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        assert run(not_a_dir, *store_op) == 2
        assert "unusable" in capsys.readouterr().err

    @pytest.mark.parametrize("index", GARBAGE_INDEXES[:6])
    def test_damaged_index_exit_2(self, ws, capsys, store_op, index):
        # the index is the object directory: here a file, whatever it holds
        ws.mkdir()
        (ws / "objects").write_bytes(index)
        assert run(ws, *store_op) == 2
        assert "unusable" in capsys.readouterr().err

    @pytest.mark.parametrize("index", GARBAGE_INDEXES)
    def test_garbage_index_is_ignored(self, ws, tmp_path, capsys, index):
        store = Workspace(ws)
        ref = store.put(Z4)
        listed = store.ls()
        (ws / "index.json").write_bytes(index)
        xmod = write_json(tmp_path, "xmod.json", jsonio.to_jsonable(conjugation_xmod(Z2)))
        for argv in (("store", "get", ref[:8]), ("identity", xmod)):
            assert run(ws, *argv) == 0
        made = capsys.readouterr().out.splitlines()[-1]
        assert store.ls() == sorted([*listed, (made, "butterfly")])
        assert (ws / "index.json").read_bytes() == index

    @pytest.mark.parametrize("content", [None, "not json"])
    def test_damaged_object_exit_2(self, ws, capsys, content):
        ref = Workspace(ws).put(Z4)
        path = ws / "objects" / f"{ref}.group.json"
        if content is None:  # a deleted object is no longer stored
            path.unlink()
        else:
            path.write_text(content)
        assert run(ws, "store", "get", ref[:8]) == 2
        err = capsys.readouterr().err
        assert f"no stored object matches {ref[:8]!r}" in err if content is None else f"{path}: malformed JSON" in err

    @pytest.mark.parametrize("step", STORE_STEPS, ids=["mkstemp", "replace"])
    def test_unwritable_store_file_exit_2(self, ws, tmp_path, capsys, monkeypatch, step):
        failing_on(monkeypatch, *step, call=1)
        xmod = write_json(tmp_path, "xmod.json", jsonio.to_jsonable(conjugation_xmod(Z2)))
        assert run(ws, "identity", xmod) == 2
        assert "unusable" in capsys.readouterr().err
        assert list((ws / "objects").iterdir()) == []

    @pytest.mark.parametrize("step", STORE_STEPS, ids=["mkstemp", "replace"])
    @pytest.mark.parametrize("command", ["span", "classify"])
    def test_unwritable_store_file_batched_exit_2(self, ws, tmp_path, capsys, monkeypatch, step, command):
        butterfly = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        argv = {"span": ("span", butterfly), "classify": ("classify", "Z2", "Z2")}[command]
        failing_on(monkeypatch, *step, call=2)
        assert run(ws, *argv) == 2
        assert "unusable" in capsys.readouterr().err
        # the first object stays, whole under its ref; no temporary file stays
        [path] = (ws / "objects").iterdir()
        ref, kind = path.name.split(".")[:2]
        blob = path.read_bytes()
        assert (jsonio.bytes_ref(blob), jsonio.canonical_bytes(json.loads(blob))) == (ref, blob)
        assert json.loads(blob)["kind"] == kind



def store_files(root: Path) -> dict[str, bytes]:
    """The object files of a workspace, by name."""
    return {p.name: p.read_bytes() for p in (root / "objects").iterdir()}


def recorded(monkeypatch, name: str) -> list:
    """Record what calls to `cli.<name>` return."""
    made = []
    fn = getattr(cli, name)

    def record(*args, **kwargs):
        made.append(fn(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(cli, name, record)
    return made


class TestObjectDirectory:
    """The object directory is the store's index: objects/<ref>.<kind>.json,
    each written whole by a rename, with no index file and no lock."""

    def earlier_workspace(self, ws) -> str:
        """A workspace as earlier versions wrote it, holding one butterfly: an
        index.json, and the object file objects/<ref>.json."""
        blob = jsonio.canonical_bytes(jsonio.to_jsonable(identity_butterfly(conjugation_xmod(Z2))))
        ref = jsonio.bytes_ref(blob)
        (ws / "objects").mkdir(parents=True)
        (ws / "objects" / f"{ref}.json").write_bytes(blob)
        (ws / "index.json").write_bytes(jsonio.canonical_bytes({ref: {"kind": "butterfly"}}))
        return ref

    def test_earlier_workspace_is_served(self, ws, capsys):
        ref = self.earlier_workspace(ws)
        assert run(ws, "store", "get", ref[:8]) == 0
        assert jsonio.bytes_ref(jsonio.canonical_bytes(json.loads(capsys.readouterr().out))) == ref
        assert run(ws, "store", "ls") == 0
        assert capsys.readouterr().out == f"{ref}  butterfly\n"
        assert run(ws, "--json", "validate", ref[:8]) == 0
        assert json.loads(capsys.readouterr().out)["ok"] is True
        assert run(ws, "compose", ref, ref[:8]) == 0
        composite = capsys.readouterr().out.strip()
        assert Workspace(ws).ls() == sorted([(ref, "butterfly"), (composite, "butterfly")])

    def test_old_and_new_file_of_one_ref_are_one_match(self, ws, capsys):
        ref = self.earlier_workspace(ws)
        assert Workspace(ws).put(identity_butterfly(conjugation_xmod(Z2))) == ref
        assert sorted(p.name for p in (ws / "objects").iterdir()) == [f"{ref}.butterfly.json", f"{ref}.json"]
        assert run(ws, "store", "get", ref[:8]) == 0
        assert Workspace(ws).ls() == [(ref, "butterfly")]

    def test_leftover_temporary_file_is_ignored(self, ws, capsys):
        store = Workspace(ws)
        ref = store.put(Z4)
        # what a writer that died before its rename leaves
        (ws / "objects" / ".k2j4x9_p.tmp").write_text('{"kind": "gro')
        assert store.ls() == [(ref, "group")]
        assert run(ws, "store", "get", ".") == 2
        assert capsys.readouterr().err == "error: no stored object matches '.'\n"

    def test_concurrent_writers_all_land(self, ws, tmp_path):
        xmods = [conjugation_xmod(Z2), discrete_xmod(Z3), conjugation_xmod(S3), conjugation_xmod(Z3)]
        paths = [write_json(tmp_path, f"x{i}.json", jsonio.to_jsonable(X)) for i, X in enumerate(xmods)]
        src = str(Path(butterflies.__file__).resolve().parents[1])
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "butterflies.cli", "--workspace", str(ws), "identity", str(path)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": src},
            )
            for path in paths
        ]
        outs = [proc.communicate(timeout=120) for proc in procs]
        assert [(proc.returncode, err) for proc, (_, err) in zip(procs, outs)] == [(0, "")] * 4
        refs = sorted(out.strip() for out, _ in outs)
        assert Workspace(ws).ls() == [(ref, "butterfly") for ref in refs]
        assert sorted(p.name for p in (ws / "objects").iterdir()) == [f"{ref}.butterfly.json" for ref in refs]

    @pytest.mark.parametrize("prefix", ["../x", "../x.json", "/"])
    def test_get_names_nothing_outside_objects(self, ws, capsys, monkeypatch, prefix):
        Workspace(ws).put(Z4)
        for name in ("x", "x.json"):
            write_json(ws, name, jsonio.to_jsonable(Z2))
        read = recorded(monkeypatch, "_read_json")
        assert run(ws, "store", "get", prefix) == 2
        assert capsys.readouterr().err == f"error: no stored object matches {prefix!r}\n"
        assert read == []

    def test_no_command_writes_an_index_or_a_lock(self, ws, tmp_path, capsys):
        from butterflies.xmod import identity_morphism

        X = conjugation_xmod(S3)
        xmod = write_json(tmp_path, "x.json", jsonio.to_jsonable(X))
        morphism = write_json(tmp_path, "m.json", jsonio.to_jsonable(identity_morphism(X)))
        assert run(ws, "identity", xmod) == 0
        ref = capsys.readouterr().out.strip()
        section = ",".join(map(str, range(X.G0.order)))
        for argv in (
            ("compose", ref, ref, "--witness", "--check"),
            ("flip", ref),
            ("span", ref),
            ("split", morphism),
            ("weakmap", "extract", ref, "--section", section),
            ("classify", "Z2", "V4", "--oracle"),
            ("validate", ref),
            ("store", "get", ref),
            ("store", "ls"),
        ):
            assert run(ws, *argv) == 0
        [extracted] = [r for r, kind in Workspace(ws).ls() if kind == "monoidal"]
        assert run(ws, "weakmap", "assemble", extracted) == 0
        assert [p.name for p in ws.iterdir()] == ["objects"]
        names = [p.name for p in (ws / "objects").iterdir()]
        assert len(names) == len(Workspace(ws).ls()) > 10
        assert all(re.fullmatch(r"[0-9a-f]{64}\.[a-z0-9-]+\.json", name) for name in names)


class TestBatchedWrites:
    """A command that stores several objects renames each new one onto its
    own file once, leaving the files that one put per object would."""

    @pytest.fixture()
    def replaced(self, monkeypatch):
        targets = []
        replace = os.replace

        def counting(source, target):
            targets.append(Path(target))
            return replace(source, target)

        monkeypatch.setattr(os, "replace", counting)
        return targets

    def assert_same_as_one_put_each(self, ws, root, objs):
        one_each = Workspace(root)
        for obj in objs:
            one_each.put(obj)
        assert store_files(ws) == store_files(root)

    def test_classify(self, ws, tmp_path, monkeypatch, replaced):
        made = recorded(monkeypatch, "classify_extensions")
        assert run(ws, "classify", "V4", "V4", "--oracle") == 0
        assert sorted(replaced) == sorted((ws / "objects").iterdir())
        self.assert_same_as_one_put_each(ws, tmp_path / "one", [cls.butterfly for cls in made[0]])

    def test_span(self, ws, tmp_path, monkeypatch, replaced):
        made = recorded(monkeypatch, "span_of_butterfly")
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        assert run(ws, "span", path) == 0
        assert sorted(replaced) == sorted((ws / "objects").iterdir())
        self.assert_same_as_one_put_each(ws, tmp_path / "one", made[0])


class TestParserReuse:
    """The parser is built once per process; no call leaves state for the next."""

    def test_compose_flags_do_not_carry_over(self, ws, tmp_path, capsys):
        xmod_path = write_json(tmp_path, "x.json", jsonio.to_jsonable(discrete_xmod(Z2)))
        assert run(ws, "identity", xmod_path) == 0
        ref = capsys.readouterr().out.strip()
        assert run(ws, "--json", "compose", ref, ref, "--witness", "--check") == 0
        composite = json.loads(capsys.readouterr().out)["ref"]
        assert run(ws, "compose", ref, ref) == 0
        assert capsys.readouterr().out == f"{composite}\n"

    def test_bound_falls_back_to_default(self, ws, capsys):
        assert run(ws, "classify", "Z2", "Z9", "--bound", "64") == 0
        assert run(ws, "classify", "Z2", "Z9") == 1
        assert f"size 18 exceeds bound {CLASSIFY_BOUND}" in capsys.readouterr().err

    def test_usage_error_after_success_exit_2(self, ws):
        assert run(ws, "classify", "Z2", "Z2") == 0
        with pytest.raises(SystemExit) as exc:
            run(ws, "classify", "Z2")
        assert exc.value.code == 2

    def test_no_parser_built_after_the_first_call(self, ws, monkeypatch):
        assert run(ws, "store", "ls") == 0
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in (("store", "ls"), ("classify", "Z2", "Z2"), ("--json", "store", "ls")):
            assert run(ws, *argv) == 0
        assert built == []
        argparse.ArgumentParser(prog="probe")  # the count does see a construction
        assert built == ["probe"]


class TestClosedStdout:
    @pytest.mark.parametrize("action", ["get", "ls"])
    def test_reader_gone_exit_2_without_traceback(self, ws, action):
        ref = Workspace(ws).put(identity_butterfly(aut_xmod(S3)))
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the CLI writes
        try:
            proc = run_process(ws, "store", action, *([ref] if action == "get" else []), stdout=write)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (2, "")


class TestNestedRefs:
    """A nested object position also takes a store ref string: here the dom
    and cod of a butterfly, refs of stored crossed modules."""

    B = identity_butterfly(conjugation_xmod(Z2))

    def files(self, ws, tmp_path) -> tuple[Path, Path]:
        """The butterfly B written inline, and written with its ends as refs."""
        inline = jsonio.to_jsonable(self.B)
        refs = Workspace(ws).put_all([self.B.dom, self.B.cod])
        return write_json(tmp_path, "inline.json", inline), write_json(
            tmp_path, "refs.json", {**inline, "dom": refs[0], "cod": refs[1][:12]}
        )

    def test_validates_like_the_inline_file(self, ws, tmp_path, capsys):
        inline, refs = self.files(ws, tmp_path)
        outputs = []
        for path in (inline, refs):
            assert run(ws, "--json", "validate", path) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["ok"] is True

    @pytest.mark.parametrize("command", [("flip", "FILE"), ("compose", "FILE", "FILE")])
    def test_operations_give_the_inline_files_refs(self, ws, tmp_path, capsys, command):
        outputs = []
        for path in self.files(ws, tmp_path):
            assert run(ws, *(path if a == "FILE" else a for a in command)) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("stored", [None, "group"], ids=["no-match", "group-as-xmod"])
    def test_bad_nested_ref_exit_2(self, ws, tmp_path, stored):
        ref = Workspace(ws).put(Z2) if stored else "0" * 64
        data = {**jsonio.to_jsonable(self.B), "dom": ref}
        proc = run_process(ws, "validate", write_json(tmp_path, "b.json", data))
        assert proc.returncode == 2
        expected = "error: missing field 'G'" if stored else f"error: no stored object matches {ref!r}"
        assert proc.stderr == expected + "\n"


class TestUsageRefusals:
    """Each usage error exits 2 with its message on stderr and nothing else."""

    def refused(self, ws, capsys, *argv) -> str:
        assert run(ws, *argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        return err

    def test_ambiguous_ref_prefix(self, ws, capsys):
        # 17 refs in 16 hexadecimal digits: two share their first character
        refs = Workspace(ws).put_all([fingroup.cyclic_group(n) for n in range(1, 18)])
        first = [r[0] for r in refs]
        prefix = next(c for c in first if first.count(c) > 1)
        err = self.refused(ws, capsys, "store", "get", prefix)
        assert err == f"error: ambiguous ref {prefix!r}: {first.count(prefix)} matches\n"

    def test_classify_a_stored_non_group(self, ws, capsys):
        ref = Workspace(ws).put(conjugation_xmod(Z2))
        assert self.refused(ws, capsys, "classify", ref, "Z2") == f"error: {ref} is not a group\n"

    def test_weakmap_extract_without_section(self, ws, tmp_path, capsys):
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        assert self.refused(ws, capsys, "weakmap", "extract", path) == "error: weakmap extract requires --section\n"

    def test_weakmap_extract_with_a_non_integer_section(self, ws, tmp_path, capsys):
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        err = self.refused(ws, capsys, "weakmap", "extract", path, "--section", "0,a")
        assert err.startswith("error: bad section list: invalid literal for int()")

    def test_weakmap_assemble_of_a_butterfly(self, ws, tmp_path, capsys):
        path = write_json(tmp_path, "b.json", jsonio.to_jsonable(z4_extension_butterfly()))
        err = self.refused(ws, capsys, "weakmap", "assemble", path)
        assert err == "error: weakmap assemble expects a monoidal functor\n"

    def test_store_get_without_a_ref(self, ws, capsys):
        assert self.refused(ws, capsys, "store", "get") == "error: store get requires a ref\n"
