"""CLI and object-store tests (run in-process against a temp workspace)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import ONE, S3, Z2, Z3, Z4, invalid_butterfly_json, z4_extension_butterfly

import butterflies
from butterflies import cli, fingroup, jsonio
from butterflies.butterfly import identity_butterfly, to_fractor
from butterflies.cli import Workspace, main, parse_group_spec
from butterflies.extension import conjugation_xmod, discrete_xmod


@pytest.fixture()
def ws(tmp_path):
    return tmp_path / "store"


def run(ws, *argv):
    return main(["--workspace", str(ws), *map(str, argv)])


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_process(ws, *argv):
    """Run the CLI in a fresh interpreter, so that stderr shows any traceback."""
    src = str(Path(butterflies.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "butterflies.cli", "--workspace", str(ws), *map(str, argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


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
    def test_z2_z2_oracle_agrees(self, ws, capsys):
        assert run(ws, "--json", "classify", "Z2", "Z2", "--oracle") == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out["classes"]) == 2
        assert out["agree"] is True
        assert sorted(c["E"] for c in out["classes"]) == ["Z2xZ2", "Z4"]

    def test_trivial_group(self, ws, capsys):
        assert run(ws, "classify", "1", "Z4") == 0
        assert "1 extension class" in capsys.readouterr().out

    def test_csv_summary(self, ws, capsys):
        assert run(ws, "classify", "Z2", "Z2", "--csv") == 0
        assert capsys.readouterr().out.strip() == "Z2,Z2,2,1"

    def test_bound_exceeded_exit_1(self, ws):
        assert run(ws, "classify", "Z4", "Z4", "--bound", "8") == 1

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
