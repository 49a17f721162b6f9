import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pullup
from pullup.cli import main
from pullup.modelfile import load_model, save_model

from conftest import FIXTURES
from large_shapes import (
    comb,
    deep_bottom,
    fanout_model,
    many_parents,
    rooted_model,
    shadowed_diamond_model,
    wide_model,
)


def test_restructure_left_with_metrics(tmp_path, capsys):
    out = tmp_path / "out.model"
    code = main(
        ["restructure", str(FIXTURES / "left.model"), "-o", str(out), "--metrics"]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "declarations   8" in text
    assert "declarations   6" in text
    assert "new classes      1" in text
    assert out.exists()
    result = load_model(out.read_bytes())
    assert result.validate() == []
    assert result.declared_property_count == 6


def test_restructure_multi_inheritance_full_effectiveness(tmp_path, capsys):
    out = tmp_path / "out.model"
    code = main(
        [
            "restructure",
            str(FIXTURES / "left.model"),
            "-o",
            str(out),
            "--multi-inheritance",
            "--metrics",
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "duplications   0" in text
    assert "effectiveness    100.0%" in text


def test_validate_ok(capsys):
    assert main(["validate", str(FIXTURES / "right.model")]) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_broken_model(capsys):
    code = main(["validate", str(FIXTURES / "broken.model")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Missing" in err


def test_metrics_command(capsys):
    assert main(["metrics", str(FIXTURES / "left.model")]) == 0
    out = capsys.readouterr().out
    assert "entities       4" in out
    assert "duplications   4" in out


def test_generate_and_restructure_pipeline(tmp_path, capsys):
    gen = tmp_path / "gen.model"
    out = tmp_path / "out.model"
    assert (
        main(["generate", "--family", "mixed", "--scale", "8", "--seed", "42", "-o", str(gen)])
        == 0
    )
    assert "elements" in capsys.readouterr().out
    assert (
        main(["restructure", str(gen), "-o", str(out), "--multi-inheritance"]) == 0
    )
    result = load_model(out.read_bytes())
    assert result.validate() == []


def test_usage_error_exit_code(capsys):
    assert main(["restructure"]) == 2
    assert main(["no-such-command"]) == 2
    assert main([]) == 2


def test_missing_input_file(tmp_path, capsys):
    code = main(["validate", str(tmp_path / "nope.model")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_min_subclasses_flag(tmp_path):
    doc = "classmodel v1\ntype T\nentity S\nentity A\n  prop a T\n  prop b T\n  super S\n"
    src = tmp_path / "in.model"
    src.write_text(doc)
    out = tmp_path / "out.model"
    assert main(["restructure", str(src), "-o", str(out), "--min-subclasses", "1"]) == 0
    result = load_model(out.read_bytes())
    s = result.entity(result.entity_id("S"))
    assert s.properties.keys() == {"a", "b"}


def _run_module(*args, **env):
    # The child imports the package the tests import, installed or not.
    src = str(Path(pullup.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "pullup", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path, **env),
    )


def test_module_invocation():
    proc = _run_module("metrics", str(FIXTURES / "left.model"))
    assert proc.returncode == 0
    assert "declarations   8" in proc.stdout


def test_restructure_output_does_not_depend_on_the_hash_seed(tmp_path):
    # The rooted model's root and the 80 classes at the bottom of the deep
    # chain are ranked from a sharing index, whose updates iterate sets of
    # string-hashed keys; the many-parents and shadowed-diamond models rank
    # many small sets of shared keys from scratch. The wide and fan-out models
    # move and probe thousands of keys of one class, and the comb fires rule 2
    # below every class of a chain in one pass.
    generated = tmp_path / "mixed.model"
    assert main(
        ["generate", "--family", "mixed", "--scale", "300", "--seed", "1", "-o", str(generated)]
    ) == 0
    models = [generated]
    for name, built in {
        "rooted": rooted_model("mixed", 300, seed=1),
        "deep": deep_bottom(200, 40),
        "many_parents": many_parents(150),
        "shadowed": shadowed_diamond_model(60, seed=1),
        "wide": wide_model(1000, seed=1),
        "fanout": fanout_model(1000, seed=1),
        "comb": comb(300),
    }.items():
        models.append(tmp_path / f"{name}.model")
        models[-1].write_bytes(save_model(built))
    for model in models:
        outputs = []
        for seed in range(4):
            out = tmp_path / f"out{seed}.model"
            proc = _run_module(
                "restructure", str(model), "-o", str(out),
                "--multi-inheritance", "--min-subclasses", "1",
                PYTHONHASHSEED=str(seed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] != model.read_bytes()
        assert outputs.count(outputs[0]) == len(outputs)


def test_trace_logs_one_line_per_firing(tmp_path):
    plain, traced = tmp_path / "plain.model", tmp_path / "traced.model"
    args = [str(FIXTURES / "left.model"), "--multi-inheritance", "--metrics"]
    quiet = _run_module("restructure", "-o", str(plain), *args)
    loud = _run_module("restructure", "-o", str(traced), "--trace", *args)
    assert quiet.returncode == loud.returncode == 0
    assert quiet.stderr == ""
    firings = int(re.search(r"rule firings\s+(\d+)", loud.stdout).group(1))
    lines = loud.stderr.splitlines()
    assert firings > 1 and len(lines) == firings
    assert all(line.startswith("DEBUG:pullup.engine:") for line in lines)
    assert lines[0].endswith("rule3 keys=['c'] sources=['B', 'C', 'D'] target=NewClass1")
    assert traced.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("super_type", ["T", "U"])
def test_restructure_rule1_name_conflict(tmp_path, super_type):
    doc = (
        f"classmodel v1\ntype T\ntype U\nentity S\n  prop a {super_type}\n"
        "entity C1\n  prop a T\n  super S\nentity C2\n  prop a T\n  super S\n"
    )
    src = tmp_path / "in.model"
    src.write_text(doc)
    out = tmp_path / "out.model"
    assert main(["restructure", str(src), "-o", str(out), "--multi-inheritance"]) == 0
    result = load_model(out.read_bytes())
    assert result.validate() == []
    assert "NewClass1" in {e.name for e in result.entities()}


def test_min_subclasses_zero_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out.model"
    args = ["restructure", str(FIXTURES / "left.model"), "-o", str(out)]
    assert main(args + ["--min-subclasses", "0"]) == 2
    assert main(args + ["--min-subclasses", "x"]) == 2
    assert "--min-subclasses" in capsys.readouterr().err
    assert not out.exists()


def test_restructure_multi_inheritance_keeps_leaf_properties(tmp_path):
    # Rule 3 makes NewClass1{a:T,b:U} over E0 and E7; E8 shares only a:T
    # with it and must not inherit b:U.
    doc = (
        "classmodel v1\ntype T\ntype U\n"
        "entity E0\n  prop a T\n  prop b U\nentity E1\n"
        "entity E7\n  prop a T\n  prop b U\n"
        "entity E8\n  prop a T\n  super E1\n"
    )
    src = tmp_path / "in.model"
    src.write_text(doc)
    out = tmp_path / "out.model"
    assert main(["restructure", str(src), "-o", str(out), "--multi-inheritance"]) == 0
    before, after = load_model(doc), load_model(out.read_bytes())
    assert after.validate() == []
    for name in ("E0", "E7", "E8"):
        assert after.flattened_props(after.entity_id(name)) == before.flattened_props(
            before.entity_id(name)
        )


def test_restructure_leaves_no_temporary_file(tmp_path):
    out = tmp_path / "out.model"
    out.write_bytes(b"old")
    assert main(["restructure", str(FIXTURES / "left.model"), "-o", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["out.model"]
    assert load_model(out.read_bytes()).declared_property_count == 6


def test_iteration_limit_leaves_existing_output_unchanged(tmp_path, capsys):
    out = tmp_path / "out.model"
    out.write_bytes(b"previous output\n")
    args = ["restructure", str(FIXTURES / "left.model"), "-o", str(out)]
    assert main(args + ["--max-iterations", "1"]) == 1
    assert "no fixpoint after 1 iterations" in capsys.readouterr().err
    assert out.read_bytes() == b"previous output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.model"]


def test_unwritable_output_leaves_no_temporary_file(tmp_path, monkeypatch):
    out = tmp_path / "out.model"
    out.write_bytes(b"previous output\n")

    def fail(src, dst):
        raise OSError("replace failed")

    monkeypatch.setattr("pullup.cli.os.replace", fail)
    assert main(["restructure", str(FIXTURES / "left.model"), "-o", str(out)]) == 1
    assert out.read_bytes() == b"previous output\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.model"]


@pytest.mark.parametrize(
    "flag, values",
    [("--max-iterations", ["0", "-3", "x"]), ("--scale", ["0", "-1", "x"])],
)
def test_counts_below_one_are_usage_errors(tmp_path, capsys, flag, values):
    out = tmp_path / "out.model"
    if flag == "--scale":
        args = ["generate", "--family", "flat", "--seed", "1", "-o", str(out)]
    else:
        args = ["restructure", str(FIXTURES / "left.model"), "-o", str(out)]
    for value in values:
        assert main(args + [flag, value]) == 2
        assert flag in capsys.readouterr().err
    assert not out.exists()


def test_generate_writes_atomically(tmp_path, capsys, monkeypatch):
    out = tmp_path / "gen.model"
    out.write_bytes(b"old")
    args = ["generate", "--family", "star", "--scale", "4", "--seed", "2"]
    args += ["-o", str(out)]
    assert main(args) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["gen.model"]
    assert load_model(out.read_bytes()).validate() == []

    def fail(src, dst):
        raise OSError("replace failed")

    out.write_bytes(b"old")
    monkeypatch.setattr("pullup.cli.os.replace", fail)
    assert main(args) == 1
    assert out.read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["gen.model"]
