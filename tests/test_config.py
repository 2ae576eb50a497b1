"""Run configuration: every key reaches a consumer."""

from __future__ import annotations

import ast
import pathlib

from gridhouse import config as C

CLI = pathlib.Path(C.__file__).with_name("cli.py")


def _views(config):
    """Every typed view the CLI and the benchmark build from a config."""
    return (config.world(), config.model(5, 7), config.rewards(),
            config.loss_weights(), config.ppo(), config.pretrain_schedule(),
            config.multitask_schedule(), config.mode("pretrain"),
            config.mode("multitask"))


def _cli_reads():
    """(section, key) pairs that cli.py reads with `config.get`."""
    out = set()
    for node in ast.walk(ast.parse(CLI.read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and len(node.args) >= 2
                and all(isinstance(a, ast.Constant) for a in node.args[:2])):
            out.add((node.args[0].value, node.args[1].value))
    return out


def _perturbed(value):
    if value in ("true", "false"):
        return "false" if value == "true" else "true"
    if value == "hard":
        return "standard"
    try:
        return str(int(value) + 1)
    except ValueError:
        pass
    try:
        return repr(float(value) / 2 if float(value) else 0.5)
    except ValueError:
        return value + "x"


def test_every_default_key_has_an_effect():
    base = _views(C.load_config())
    read_by_cli = _cli_reads()
    dead = []
    for section, keys in C.DEFAULTS.items():
        for key, value in keys.items():
            config = C.load_config()
            config.raw.set(section, key, _perturbed(value))
            if _views(config) == base and (section, key) not in read_by_cli:
                dead.append((section, key))
    assert not dead, f"keys that change no typed view and that cli.py never reads: {dead}"
