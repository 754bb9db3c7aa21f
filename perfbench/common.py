"""Paths, config builders and in-process call helpers shared by the
benchmark runner and the reference recorder."""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRIPTS = ROOT / "scripts"
REFERENCES = Path(__file__).resolve().parent / "references"
WORKLOADS = ("cli_session", "split_study", "wideband_gamma", "single_span_gamma")

POWER_STUDY = SCRIPTS / "power_sweep_study.py"
SPLIT_STUDY = SCRIPTS / "split_mpi_study.py"

#: Files of the repository under test that every workload needs.
REQUIRED = (SRC / "hybridgn" / "__init__.py", SRC / "hybridgn" / "cli.py",
            POWER_STUDY, SPLIT_STUDY)

#: Datasheet ranges every generated span is drawn from.
ATTENUATION_DB_PER_KM = (0.15, 0.22)
ABS_BETA2_PS2_PER_KM = (15.0, 28.0)
GAMMA_PER_W_KM = (0.4, 1.4)
SPAN_KM = (60.0, 120.0)
SEGMENTS = (2, 3, 4)

#: Relative tail target of the default quadrature settings; outputs that
#: carry no tail bound of their own are certified to this level.
TARGET_REL_TRUNCATION = 1e-4


def missing_inputs(workload: str) -> List[str]:
    needed = REQUIRED + (REFERENCES / f"{workload}.json",)
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def ensure_src_on_path() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def draw_span(rng, n_segments: int) -> List[Dict[str, Any]]:
    """Random span in datasheet units: n_segments fibers that share one
    dispersion sign and sum to a length inside SPAN_KM."""
    total_km = rng.uniform(SPAN_KM[0] + 0.5, SPAN_KM[1] - 0.5)
    weights = [rng.uniform(1.0, 3.0) for _ in range(n_segments)]
    sign = rng.choice((-1.0, 1.0))
    return [
        {
            "name": f"F{i + 1}",
            "length_km": round(total_km * w / sum(weights), 1),
            "attenuation_db_per_km": round(rng.uniform(*ATTENUATION_DB_PER_KM), 4),
            "beta2_ps2_per_km": round(sign * rng.uniform(*ABS_BETA2_PS2_PER_KM), 3),
            "gamma_per_w_km": round(rng.uniform(*GAMMA_PER_W_KM), 4),
        }
        for i, w in enumerate(weights)
    ]


def system_block(spans: int, channels: int, symbol_rate_gbd: float,
                 noise_figure_db: float = 5.0) -> Dict[str, Any]:
    return {"spans": spans, "symbol_rate_gbd": symbol_rate_gbd,
            "channels": channels, "noise_figure_db": noise_figure_db,
            "wavelength_nm": 1550.0}


def config(span: List[Dict[str, Any]], system: Dict[str, Any],
           epsilon: float | None = None, truncation: bool = True) -> Dict[str, Any]:
    cfg: Dict[str, Any] = {"span": span, "system": system}
    if epsilon is not None:
        cfg["variant"] = {"kind": "span_scaled", "epsilon": epsilon}
    if not truncation:
        cfg["quadrature"] = {"truncation_enabled": False}
    return cfg


def load_script(path: Path):
    """Import a study script as a module without running its __main__ block."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def call_main(main: Callable[[Sequence[str]], int], argv: Sequence[str]) -> Tuple[int, str]:
    """Run a CLI-style main(argv) in this process; return (code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code or 0, out.getvalue()


def load_references(workload: str) -> Dict[str, Any]:
    with open(REFERENCES / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)
