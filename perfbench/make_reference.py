"""Write the reference outputs the benchmark gates every iteration on.

    python3 perfbench/make_reference.py

Verify workloads get their verdicts ``(case, param, pass, skipped)`` at
each reference seed; ``study`` gets its rows and monotonicity flags. Run
this only when a change is meant to alter a verdict or a study row, and
say in that change which entries moved and why.
"""

import json
import os

# the same single-threaded BLAS as the benchmark, set before numpy loads
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import workloads  # noqa: E402


def main():
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        if name == "study":
            ref = {"sizes": list(workloads.STUDY_SIZES),
                   "studies": workloads.study_table(
                       workloads.run_iteration(name, None))}
        else:
            config = dict(workloads.VERIFY[name])
            config["betas"] = list(config["betas"])
            ref = {"config": config,
                   "seeds": {str(s): workloads.verdicts(
                       workloads.run_iteration(name, s))
                       for s in workloads.REFERENCE_SEEDS}}
        path = workloads.reference_path(name)
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
