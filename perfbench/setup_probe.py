"""Set-up probe: in a fresh interpreter, time `import deltapart` (numpy,
scipy and networkx included) and one tiny warm-up solve, and print both as
JSON.  A CLI user pays this on every call.  Run with `src` on PYTHONPATH.
"""

import json
import time


def warm_up():
    """star3 at R=4, one refinement level, delta form, lowest eigenvalue."""
    from deltapart import eigen, forms, geometry, mesh

    p = geometry.build_canonical_partition("star3", {"box_radius": 4.0})
    m = mesh.triangulate(p, 1)
    d = geometry.InteractionData.uniform(p, 1.0, 1.0)
    df = forms.assemble_delta(m, d, "dirichlet")
    eigen.lowest_eigenpairs(df.A, df.M, 1, lower_bound=df.coercivity_bound)


if __name__ == "__main__":
    t0 = time.perf_counter()
    import deltapart  # noqa: F401
    t1 = time.perf_counter()
    warm_up()
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "warmup_s": t2 - t1}))
