"""Result formatting and persistence.

Every benchmark prints the reproduced table/figure series to stdout and
mirrors it (with the raw numbers as JSON) under ``results/`` so
EXPERIMENTS.md can reference frozen artifacts.  Each artifact carries the
host it was measured on (:func:`host_info`).
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Any

RESULTS_DIR = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))


def format_table(headers: list[str], rows: list[list],
                 title: str | None = None) -> str:
    """GitHub-markdown table with right-padded columns."""
    def render(cell: Any) -> str:
        if isinstance(cell, float):
            return f"{cell:.4f}" if abs(cell) < 100 else f"{cell:,.0f}"
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
              for i, h in enumerate(headers)]
    lines = []
    if title:
        lines.append(f"### {title}")
    lines.append("| " + " | ".join(h.ljust(w) for h, w in zip(headers, widths)) + " |")
    lines.append("|-" + "-|-".join("-" * w for w in widths) + "-|")
    for row in str_rows:
        lines.append("| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |")
    return "\n".join(lines)


def git_sha(start: Path | None = None) -> str:
    """HEAD of the git checkout holding ``start`` (default: this
    package), read from ``.git``; ``"unknown"`` outside git."""
    here = (start or Path(__file__)).resolve()
    for root in (here, *here.parents):
        git = root / ".git"
        if not git.is_dir():
            continue
        try:
            head = (git / "HEAD").read_text().strip()
            if not head.startswith("ref: "):
                return head
            ref = head[5:]
            if (git / ref).is_file():
                return (git / ref).read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        except OSError:
            pass
        break
    return "unknown"


def host_info() -> dict[str, Any]:
    """What a measurement ran on: usable CPUs, Python and numpy versions
    and the git sha of the code."""
    import numpy as np

    from repro.runtime import available_cpus

    return {"cpus": available_cpus(), "python": platform.python_version(),
            "numpy": np.__version__, "git_sha": git_sha()}


def save_result(name: str, markdown: str,
                data: dict | list | None = None) -> Path:
    """Persist a reproduced artifact under ``results/``, stamped with
    :func:`host_info`: a footer line of the ``.md`` and the ``host`` key
    of the ``.json`` (``{"host": ..., "data": data}``)."""
    host = host_info()
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    md_path = RESULTS_DIR / f"{name}.md"
    footer = " ".join(f"{key}={value}" for key, value in host.items())
    md_path.write_text(f"{markdown}\n\n_host: {footer}_\n")
    if data is not None:
        (RESULTS_DIR / f"{name}.json").write_text(json.dumps(
            {"host": host, "data": data}, indent=2, default=_jsonify))
    return md_path


def _jsonify(obj: Any):
    try:
        import numpy as np
        if isinstance(obj, (np.integer,)):
            return int(obj)
        if isinstance(obj, (np.floating,)):
            return float(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
    except ImportError:  # pragma: no cover
        pass
    raise TypeError(f"not JSON serializable: {type(obj)}")


def ascii_series(xs, ys, width: int = 68, height: int = 14,
                 label: str = "") -> str:
    """Poor man's line plot for progress-curve figures (6, 7)."""
    import numpy as np
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    grid = [[" "] * width for _ in range(height)]
    if len(xs) and xs.max() > xs.min():
        gx = ((xs - xs.min()) / (xs.max() - xs.min()) * (width - 1)).astype(int)
        gy = np.clip(((1.0 - np.clip(ys, 0, 1)) * (height - 1)).astype(int),
                     0, height - 1)
        for x, y in zip(gx, gy):
            grid[y][x] = "*"
    lines = ["".join(row) for row in grid]
    out = [f"-- {label} --"] if label else []
    out += [f"1.0 |{lines[0]}"]
    out += [f"    |{line}" for line in lines[1:-1]]
    out += [f"0.0 |{lines[-1]}"]
    out += ["    +" + "-" * width]
    return "\n".join(out)
