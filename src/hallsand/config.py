"""Run-config files: YAML sections of flag defaults, one section per command."""

from __future__ import annotations

from pathlib import Path


class ConfigError(ValueError):
    """Malformed or inapplicable run-config file."""


_SCALAR = (str, int, float, bool)


def load_config(path: str | Path) -> dict[str, dict]:
    """Load and shape-check a config file.

    The file maps section names (command names, plus an optional "common"
    section applied to every command) to flat mappings of option values.
    Values must be scalars, or lists of scalars for repeatable flags;
    nesting beyond that is rejected.
    """
    import yaml  # only --config runs pay for the import

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: {err}") from None
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping of sections")
    config: dict[str, dict] = {}
    for section, body in raw.items():
        if not isinstance(section, str):
            raise ConfigError(f"{path}: section names must be strings, got {section!r}")
        if body is None:
            config[section] = {}
            continue
        if not isinstance(body, dict):
            raise ConfigError(f"{path}: section {section!r} must be a mapping")
        for key, value in body.items():
            if not isinstance(key, str):
                raise ConfigError(f"{path}: option names must be strings, got {key!r}")
            items = value if isinstance(value, list) else [value]
            if not all(item is None or isinstance(item, _SCALAR) for item in items):
                raise ConfigError(
                    f"{path}: option {section}.{key} must be a scalar or a list of scalars,"
                    f" got {type(value).__name__}"
                )
        config[section] = dict(body)
    return config


def section_for(config: dict[str, dict], command: str) -> dict:
    """Options for one command: the common section overlaid by its own."""
    merged = dict(config.get("common", {}))
    merged.update(config.get(command, {}))
    return merged
