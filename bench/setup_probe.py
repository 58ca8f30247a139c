"""Set-up of one study in a fresh interpreter, timed from outside by the caller.

Imports `stapbench`, parses the study's config, and builds what every study
needs before its first run: `scene.total_covariance`, its `sampling_factor()`,
and `beamformers.ka_prior` when `ka-mvdr` is listed. With `--env` it also
prints, as one JSON line, the environment this interpreter sees.

    python bench/setup_probe.py SRC_DIR CONFIG [--env]
"""

import json
import os
import platform
import sys


def loaded_openblas() -> list:
    """The OpenBLAS shared objects mapped into this process, as lib-dir/file."""
    seen = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in path.lower():
                seen.add("/".join(path.split("/")[-2:]))
    return sorted(seen)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_loaded": loaded_openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main(src_dir: str, config: str, *flags: str) -> int:
    sys.path.insert(0, src_dir)
    from stapbench import beamformers, config_io, scene

    cfg, _, spec = config_io.parse_config(config)
    scene.total_covariance(cfg).sampling_factor()
    if "ka-mvdr" in spec.algorithms:
        beamformers.ka_prior(
            cfg, beamformers.PriorPerturbation(spec.prior_velocity_fraction, spec.prior_cnr_offset_db)
        )
    if "--env" in flags:
        print(json.dumps(environment()))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
