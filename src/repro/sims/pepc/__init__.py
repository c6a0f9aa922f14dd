"""PEPC: Parallel Electrostatic Plasma Coulomb-solver (reproduction).

Paper section 3.4: "The code uses a hierarchical tree algorithm to perform
potential and force summation for charged particles in a time O(N log N),
allowing mesh-free particle simulation...  for example, a particle beam
striking a spherical plasma target."  Steerable: "the particle beam or
laser parameters (charge/intensity, direction) can be altered by the user
interactively while the application is running", and a damping assist to
drive "an initially random plasma system towards a cold, ordered state".

Modules: octree construction, tree/direct force evaluation, leapfrog
integrator with the beam-on-sphere scenario, SFC domain decomposition,
diagnostics.
"""

from repro.sims.pepc.tree import Octree, build_octree
from repro.sims.pepc.force import direct_field, direct_force, tree_field, interaction_energy
from repro.sims.pepc.integrator import PlasmaSim, beam_on_sphere_setup
from repro.sims.pepc.domain import assign_domains
from repro.sims.pepc.diagnostics import kinetic_energy, tree_stats

__all__ = [
    "Octree",
    "build_octree",
    "direct_field",
    "direct_force",
    "tree_field",
    "interaction_energy",
    "PlasmaSim",
    "beam_on_sphere_setup",
    "assign_domains",
    "kinetic_energy",
    "tree_stats",
]
