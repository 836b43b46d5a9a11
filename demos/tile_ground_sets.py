"""Ground sets of a single six-oscillator tile under different parameter choices."""

from jpotile import TileConfig, TileParams, ground_set, tile_energy, uniform_tile_params


def show(title, params, clamp=None):
    energy, configs = ground_set(params, clamp_ancilla=clamp)
    print(f"{title}: E0 = {energy:+.4g}, {len(configs)} states")
    for cfg in configs:
        print(f"   logical {cfg.logical} ancilla {cfg.ancilla} parity {cfg.logical_parity:+d}")
    print()


show("field free, J_a=1, C=1", TileParams((0.0, 0.0, 0.0, 0.0), 1.0, 1.0, 1.0))

# uniform construction: fields J_b, ancilla drive 2*J_b, penalty J_C
show("uniform J_b=1, J_C=1", uniform_tile_params(1.0, 1.0))

# a tiny symmetry breaking field picks one state out of the even sector
eps = 0.05
show("small field eps=0.05", TileParams((-eps, -eps, -eps, -eps), 1.0, 1.0, 1.0))

# the same tile at O(1) couplings and in joules (h * 1 GHz ~ 6.6e-25 J):
# degeneracy is judged relative to the energy range, so the units do not
# change the ground set
tile = TileParams((0.3, -0.2, 0.1, 0.05), 1.0, 1.0, 1.0)
show("fields (0.3, -0.2, 0.1, 0.05), J_a=1, C=1", tile)
h_ghz = 6.6e-25
show(
    "the same tile in joules",
    TileParams(tuple(v * h_ghz for v in tile.j), h_ghz, h_ghz, h_ghz),
)

show(
    "ancillas clamped down",
    TileParams((0.0, 0.0, 0.0, 0.0), 1.0, 1.0, 1.0),
    clamp=(-1, -1),
)

# energy of one chosen configuration as the penalty grows
cfg_even = TileConfig((1, 1, -1, -1), (1, -1))
cfg_odd = TileConfig((1, 1, 1, -1), (1, 1))
print("penalty sweep, even vs odd parity configuration:")
for c in (0.5, 1.0, 2.0, 4.0):
    p = uniform_tile_params(1.0, c)
    print(
        f"   C={c:4.1f}  E(even)={tile_energy(p, cfg_even):+7.3f}"
        f"  E(odd)={tile_energy(p, cfg_odd):+7.3f}"
    )
