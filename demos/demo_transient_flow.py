"""Transient decay flow with exact-solution monitoring.

Integrates the full nonlinear system on a box with boundary data from
an exact exponentially decaying flow: normal velocity imposed strongly,
tangential velocity weakly.  Prints a few diagnostics along the way,
compares against the exact field at the final time, and writes a VTK
snapshot for a mesh viewer into the current directory.
"""
import numpy as np

from vvpflow import (
    BoundaryConditionSpec,
    DeRhamComplex,
    RegionBC,
    SolverConfig,
    build_box_mesh,
    initialize_state,
    run_transient,
)
from vvpflow.fields import ethier_velocity, ethier_vorticity
from vvpflow.vtk_io import write_vtk_fields


def main():
    a, d, t_end = 2.0, 1.0, 0.25
    uex = ethier_velocity(a, d)
    wex = ethier_vorticity(a, d)

    complex_ = DeRhamComplex(build_box_mesh(3, 3, 3))
    bc = BoundaryConditionSpec(
        RegionBC(
            vorticity_mode="natural",
            vorticity_data=uex,
            velocity_data=uex,
        )
    )
    config = SolverConfig(nu=1.0, dt=1e-3, t_end=t_end)
    state0 = initialize_state(complex_, bc, uex, t=0.0)

    print(f"decaying flow on a {complex_.mesh.n_tets}-tet mesh, "
          f"dt = {config.dt}, t_end = {t_end}")
    print()
    print(f"{'t':>6} {'kinetic energy':>15} {'divergence':>11} {'residual':>10}")

    def monitor(state, diag):
        if diag.step % 50 == 0:
            print(
                f"{state.t:6.3f} {diag.kinetic_energy:15.6f} "
                f"{diag.div_max:11.2e} {diag.residual:10.2e}"
            )

    summary = run_transient(
        complex_, bc, config, state=state0, observers=(monitor,)
    )
    final = summary.final

    print()
    err_u = complex_.error_norms(final.u, uex, t=final.t)
    err_w = complex_.error_norms(final.omega, wex, t=final.t)
    print(f"velocity error at t={final.t:g}:  L2 = {err_u.l2:.4e} "
          f"(relative {err_u.rel_l2:.3f})")
    print(f"vorticity error at t={final.t:g}: L2 = {err_w.l2:.4e} "
          f"(relative {err_w.rel_l2:.3f})")

    # The exact kinetic energy decays like exp(-2 d^2 t).
    e0 = summary.history[0].kinetic_energy
    eT = summary.history[-1].kinetic_energy
    print(f"measured energy ratio E(t_end)/E(dt) = {eT / e0:.4f}, "
          f"exact factor = {np.exp(-2 * d * d * (t_end - config.dt)):.4f}")

    out = "transient_final.vtk"
    write_vtk_fields(out, complex_, final, title="decaying flow, final state")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
