"""Pinned numbering of the mesh and the broken dof layout, pinned
assembled forms, and pinned partitions.

Every array of `mesh.triangulate` and of `forms.broken_dof_layout`, for each
canonical geometry (box radius 4, default parameters) at levels 0-3, must
hash to the digest recorded here.  A speed change that renumbers nodes,
triangles, interface edges or dofs therefore fails this test instead of
moving eigenvalues at rounding level.  The same holds for the assembled
forms on those meshes: A and M (data, indices, indptr), the coercivity
bound and the dof maps of every assembler, so a change to the summation
order of the assembly fails here too.  The partitions themselves are
pinned for more inputs than the meshes: vertices, each subdomain's loops,
each interface's segments and length, and the exact colouring, so a
rewrite of the geometry code that reorders a loop or an interface fails
here even where the mesh would hide it.  A deliberate renumbering or
reordering must update the digests together with a note on why it
changed."""

import hashlib
import math

import numpy as np
import pytest

from deltapart import forms, geometry, mesh

_MESH_ARRAYS = ("nodes", "triangles", "tri_subdomain", "iface_edge_nodes",
                "iface_edge_id", "iface_edge_kl", "iface_edge_length",
                "outer_boundary_nodes")

# (geometry, level): (sha256 of the mesh arrays, sha256 of the layout)
_DIGESTS = {
    ("half_plane", 0): ("cf9328b14e9cd156ec733e11ff8c97922d54e4349489e3db57f687019b99578e",
                    "c9b535fce8874c46ab222ec68656e7d6bcb7f0f49c2d1dffb05ed04a7de265d8"),
    ("half_plane", 1): ("a4e2dd5e463902268b3aceccb53ce9785f62fc46920ecc76dd900d6c42ffc8fb",
                    "3fb4d13dc720514e17ccd3d9d1c2dedc77b5d86bb15084ff4a34c90a5fe3af3b"),
    ("half_plane", 2): ("3c27ec00c65cc25ff04f143ca757a0d073f6461b29894b8c39b4f99b7712e7db",
                    "b43e60912fcbf29ba3c8f53f3cb3314c1ad9e6658e1a17df7d15925f0170798f"),
    ("half_plane", 3): ("62cd262510f2125bcd0a53a73511a886d7e9339921c918fb7f04f6d3cc0bc4d8",
                    "7dd8524ef1fa5b0c0bcbcbd0e49c63d3c4f74d440ec79fb055ca157fdb520e4b"),
    ("wedge", 0): ("ea203eaf1f925d72983f211fee6da760b277aefb8bea7478a69b54cd1587e333",
                    "6569eafabd9043f0061e17a785c93673f2925e3010315ff7eb2ae7ed2f4887ff"),
    ("wedge", 1): ("b48583eb3c6f39f74b4405acab70378ab021e26742b02f5701dc32354e901c3c",
                    "e843850186663fde0894d2b7515a1f630c3887297f0b67deb3b43685eab045f2"),
    ("wedge", 2): ("205e41ee0354702cd37080d042a2393ddb13dce6335ffb3881fc86b52ebfc926",
                    "29d52b5b623a8c2400745ca5be973360f10eaa012abb331b62a38be146ac8813"),
    ("wedge", 3): ("8c3eba308de9e5e8b3e39d8600046a7e435b9c581576cb023b52289130794fda",
                    "9f35cc8ac112392a227b750cf8ac607de74726fa56b6c163c061d8a5e034eb92"),
    ("star3", 0): ("103e972150a1c84591d3a90f4275f2f93a284124f20f6af162c7be8a043063a6",
                    "291a09ae691460784af93d2707fbf2afeb0dd24e2db7d288cbe53698d7dd3aa2"),
    ("star3", 1): ("99ddc43ec5d84067d361da4017edf4c4256b83c6482d7268917c1a3c03d91532",
                    "4a1e7f8c96719d9f85b07e0b614e3d7215056cbe61f9d91e0ded75413b3038af"),
    ("star3", 2): ("a5e954c0ceb4c645522f2e590c62b270383e4f587827dcfcd6d687be620caef3",
                    "e3fbc9775ff541c428b52e1385c77970acecb9407a356a27720f328d89043b7b"),
    ("star3", 3): ("10a8784481cb2dc91c96c8b1e90c97479151605c91a6c7f1093092b8ed93f5d4",
                    "1fc3136c1f10814bc7e780fb3f5b9df21591a0a44e68c1c24220fb28816b5268"),
    ("line_with_bump", 0): ("5d7e062e6363042870108bcdbb9fd7c8c6bee4514ec139f237f39c0c4abcf331",
                    "bfc0b6f13912b3aabf562a209b8814e7a12bdae4c87bbb3bf90147b55b73019f"),
    ("line_with_bump", 1): ("0138df1f77305f500117aed1a01733384b24d3440483903c55468096bdbdc0a6",
                    "5cefd577dea663b2ae7a41eea44d78adf1ff9446243f5d98970471d065bf2249"),
    ("line_with_bump", 2): ("c1c9f9187646947c884bb28e0e2e8c523976b977e3dec480eeeca1eae52bce3e",
                    "3469c1dfabd5b8bcfcee96d33c10278aca6e6a6a22e9fb306b2de73d36f96e9c"),
    ("line_with_bump", 3): ("7a51a2b1c94e6e9a388ff57eb3886e3f96292c768f77d3ce73743e31500232d0",
                    "67dcbe45a3aaff1e38c517d4201c8afbc8aec9efef40b068419588f132e5d0c3"),
    ("grid", 0): ("6b811fa1e0ed654acdba0ebf3af303e451429db3be08c89cacc38cb5c39cdefd",
                    "ea704a0904c29cc1fdc33d60680562e2f4d396c6b55adbf84a44ca60d2c9cb54"),
    ("grid", 1): ("29c30669eec36b4b98a4793ae76d9fa2b328833a92e174ed6ee7e424da8c62be",
                    "1610b8c8eebaafcd364848e1739a307e333b7e3fd74df7be00688dee853f0a23"),
    ("grid", 2): ("4afc55d2a0a8f3f3b29161cf6e48245f2dfd4a5bd76f39b3fd8ec184cd6a4c9f",
                    "5eba990d97acef3a774d72750852cd63b71b09e298d2d2beeba96b8739ed7ce8"),
    ("grid", 3): ("cebb132cfb2e852e733b09b8bfb22b0e60686d972e1e85fac28d84299efd5c5d",
                    "7d21368bcdc7ee4cf9ae2aa23c8f3182c4e277048c55f14db44edb568c3d35a6"),
    ("island", 0): ("7140f68d6f28ed009b8ae67f8896d44dc86b646d65c7916974feaec7c7d12c92",
                    "266bd74905e11b5f689b8ef3adecfa8958047121df808672cb2f8adb8577e3ec"),
    ("island", 1): ("1b024d36fc1ae32fbd7940f0159428f6d4817fdfc59a11e553ce6520b6d39146",
                    "4057eb2acc1c77735d38ed153c16e4818b0a755122d4f0175c0180ac5fa9155b"),
    ("island", 2): ("d2b10da29ad6ac190b506edfd7be6a490d9d7ed31327aad158e68e717733cf9b",
                    "430965f9005d128ca4d4d65cfb7bc16d34127e30941bc91200e52dccf4cf7cbc"),
    ("island", 3): ("c7bdb9217dcfb00ef4b9eb9364fe5eb68b87246a00b138044feb110737ea996b",
                    "1b1af729ad77c9387b2b5c30baa046355efa033f309009a759e6673e28e42192"),
}


def _digest(named):
    """sha256 over the name, dtype, shape and bytes of each array in turn."""
    h = hashlib.sha256()
    for name, a in named:
        a = np.ascontiguousarray(a)
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_mesh_and_layout_numbering_is_pinned(name):
    p = geometry.build_canonical_partition(name, {"box_radius": 4.0})
    for level in range(4):
        m = mesh.triangulate(p, level)
        dof_node, dof_sub, table = forms.broken_dof_layout(m)
        mesh_digest = _digest([(f, getattr(m, f)) for f in _MESH_ARRAYS])
        layout_digest = _digest(
            [("dof_node", dof_node), ("dof_subdomain", dof_sub)]
            + [(f"sub_node_dof[{k}]", table[k]) for k in m.subdomain_ids()])
        assert (mesh_digest, layout_digest) == _DIGESTS[name, level], \
            f"{name} level {level}: mesh or layout numbering changed"


# one form per assembler and boundary policy; the Robin form is the first
# subdomain's, with gamma 0.5
_FORMS = {
    "delta dirichlet": lambda m, d: forms.assemble_delta(m, d, "dirichlet"),
    "delta neumann": lambda m, d: forms.assemble_delta(m, d, "neumann"),
    "delta' dirichlet": lambda m, d: forms.assemble_delta_prime(m, d, "dirichlet"),
    "delta' neumann": lambda m, d: forms.assemble_delta_prime(m, d, "neumann"),
    "robin": lambda m, d: forms.assemble_subdomain_robin(
        m, int(m.subdomain_ids()[0]), 0.5),
}

# geometry: sha256 of each form in _FORMS order, over levels 0-3
_FORM_DIGESTS = {
    "half_plane": (
        "682419c6c7a12b0ddc8f2d3cf1ddd75c99c67728f20593a17c0b18f3ae8e477c",
        "b01ba8d5cb5a74d62517d20ad10c267c13ab15b890ec86d8d36db9fb9443d5d5",
        "cc7acafa31ce373a85fa493ab74c76c8b3e2421b0652b1fffff067254f063528",
        "9ee80d7b8f0b02d1c5d56a3cdd4ef8768dae6fb548576c122a9ffc5e4b5b0d7c",
        "a77a68ff77cba21e6221cff890ffc320c1eeb2dcb299eae5826eb51010aa6ec8",
    ),
    "wedge": (
        "024aabb03d25c7b984ea5b62cbb6db0eb365793d1151d94a5f997048edca148b",
        "b9b501d21c3fe9c3317610cf0dce855a2feef36b2c1d324c5c6c9d551f19a54c",
        "20278c1b614578569e55dc26b174446e277ce597740fd40b217bf4b277f72c7c",
        "eec8f78382b65ed08d2dc76f202e4c7f86baeebea24decb39a99893a5fb3006f",
        "fc2f945b6d235831bb921aa49fcd1600754e83e6fe2401274dec4925612d5ecb",
    ),
    "star3": (
        "ed6b6e72f815acc383808a7641eeb44b96d3d3d71215a9c18ca3df013f725caa",
        "68af45ba11922fda14a44069bb4581c0a8ab5ad2dd696eb2343b794f9181ec89",
        "fdfd851db7cb2f13a327f9f9e4bc7f26783e4e4e5067834a0ff149e60d2c25b9",
        "0d2f3db25ecd999dd34aab52f61002144ce1519c8a53bf5244e8b69fc943ae37",
        "2a08ad5992cca58ff216b19d18acee9c29ffa0514a8602a2ed7d2688abb3388b",
    ),
    "line_with_bump": (
        "ab66eb259d218272e14c0ef2dfcc8657d423ff5963d0376a596b19ba37867b2d",
        "5c7fe3ef00cebf2cf3b428a8224b7b8fd38c8af7f05bd4cd4e54b5eccbbc4003",
        "e69c60e62d2f407d3bce778ef1eb6b83f98c6fbafcf6cc8404b4b79ef9a2a2b1",
        "f933053ae3d659f508d4d21d86318130518f75ba5618882be7699019a46b802b",
        "ff59e26fbd4d352d7f56e66dc540557b358b64d7c490cec9a9bc371bfcdef285",
    ),
    "grid": (
        "c917216d27293c5ad6342b0bf9087e0de8f70fd00d9a1d39ae029e20db617c1a",
        "9cbc34174bbea63fb0d22c72b29a996c4a8a69116932615f124186c02c518ef3",
        "d4134cbf893030283d56d3cb458411c5cfc269ead7ad48f97b2afd032633266b",
        "43c528e54241c6afc360235163369540bbf693cb137e4df67c1ff4068133a3c6",
        "800f36b6e6e0c5e9be3564cc4388591bd452147bc02a07e2e53f4d1e0e3cb803",
    ),
    "island": (
        "9f4faade4cad6b283898e7af1bfba6c7ae8f55a87825fca899e1f819fc9a4ca8",
        "7ac251d7f70d3f5075868da61819006ba11c5b1888c6ea5f4d92dce9dde92caf",
        "04b2d76b2dc35e4e14cabe5a284edd18cf5dff7c084ce7f19eb681133394f6bd",
        "6ff7651337d34dbd7456918ef1c59433ddacccbb9ae0b05a0e7db586f5f3d255",
        "9935ab8465f1da237ece394df6405587066a0631294b6e92aa41efecd0b2a8db",
    ),
}


def _form_arrays(df):
    return ([(f"{x}.{f}", getattr(getattr(df, x), f))
             for x in ("A", "M") for f in ("data", "indices", "indptr")]
            + [("coercivity_bound", np.float64(df.coercivity_bound)),
               ("full_to_red", df.full_to_red), ("dof_node", df.dof_node)])


@pytest.mark.parametrize("name", geometry.CANONICAL_NAMES)
def test_assembled_forms_are_pinned(name):
    p = geometry.build_canonical_partition(name, {"box_radius": 4.0})
    d = geometry.InteractionData.uniform(p, 1.0, 2.0)
    meshes = [mesh.triangulate(p, level) for level in range(4)]
    digests = tuple(
        _digest([(f"{level} {a}", v) for level, m in enumerate(meshes)
                 for a, v in _form_arrays(make(m, d))])
        for make in _FORMS.values())
    for form, got, want in zip(_FORMS, digests, _FORM_DIGESTS[name]):
        assert got == want, f"{name} {form}: assembled form changed"


# (geometry, params): sha256 of the partition and its exact colouring
_PARTITION_CASES = {
    "half_plane": ("half_plane", {}),
    "wedge": ("wedge", {}),
    "star3": ("star3", {}),
    "line_with_bump": ("line_with_bump", {}),
    "grid": ("grid", {}),
    "island": ("island", {}),
    "wedge pi/2": ("wedge", {"phi": math.pi / 2}),
    "wedge pi/2-1e-10": ("wedge", {"phi": math.pi / 2 - 1e-10}),
    "wedge pi/2+1e-10": ("wedge", {"phi": math.pi / 2 + 1e-10}),
    # just outside the snap to the corners (R, R) and (-R, R)
    "wedge pi/2-1.5e-9": ("wedge", {"phi": math.pi / 2 - 1.5e-9}),
    "wedge pi/2+1.5e-9": ("wedge", {"phi": math.pi / 2 + 1.5e-9}),
    "wedge 3pi/4": ("wedge", {"phi": 3 * math.pi / 4}),
    "wedge pi": ("wedge", {"phi": math.pi}),
    "grid 3x5": ("grid", {"rows": 3, "cols": 5}),
    "grid chi4": ("grid", {"variant": "chi4"}),
    "island sides 5": ("island", {"sides": 5}),
    # ties for the topmost and the bottommost vertex, a notch on top
    "island polygon": ("island", {"polygon": [[-2, -2], [2, -2], [2, 2], [0.5, 1],
                                              [-2, 2]]}),
    # clockwise, so the builder reverses it
    "line_with_bump bump": ("line_with_bump", {"bump": [[-1, 1], [-2, 3], [1, 4],
                                                        [2, 2]]}),
}

_PARTITION_DIGESTS = {
    "half_plane": "a9398ccaf6ba449d344d1849565eb9750fa3def593c58bf80950a9556342aaf8",
    "wedge": "40d2a08d05dceb7c788348ebbe8bab3017b77c8543dd8bad257d1bff03cf2c78",
    "star3": "793902eee0e0863a8b294975ced4dcb111ae13e22b324a7e0a8dc8bb6f505001",
    "line_with_bump": "d5b8e0a905087824b675c77b2e73a5e7853edca391303924924ffeead2edba73",
    "grid": "1d6438318fe2cf31deaa4c327f9387c35ba97bb8b9f34ec4913f0d4f921070e5",
    "island": "3342605cd946e7fe71bea34582d7bd23e6afa9a8f6234df037c1ee0f180d0d4b",
    "wedge pi/2": "d163720385e512978a90b11c096d5320fb9ebe2f7d06c757c63194ea31ef14de",
    "wedge pi/2-1e-10": "d163720385e512978a90b11c096d5320fb9ebe2f7d06c757c63194ea31ef14de",
    "wedge pi/2+1e-10": "d163720385e512978a90b11c096d5320fb9ebe2f7d06c757c63194ea31ef14de",
    "wedge pi/2-1.5e-9": "da05332650a27f6aceddd039769242ed175079c9ef7b02bf3530b8b06adffbbf",
    "wedge pi/2+1.5e-9": "b957979ed3fb4e3141746a7f7b7b50bba2f8ee93b7da70f8be9f9f5b1a57b465",
    "wedge 3pi/4": "d71fe5306094e8d1306c34bcb485fde200d9cf95c77b0dc6322ed927e45da1eb",
    "wedge pi": "6ecf32342d928ce6267a9dc3352b9a9191cc6c138fc652599698a4498e8a8c63",
    "grid 3x5": "8d987f14833dfb1e874e68234141f20bba9d6f1373e0a8567134e123a7b4c329",
    "grid chi4": "e2229ff07dc4f605e2f18a20bd00442e76532de06ff079c073726920d1e96865",
    "island sides 5": "36dbc4848a8154dabdc65b823bb14b14da0a7271c0a795a09ae840a547297e02",
    "island polygon": "6787ef09b04bd333769c514e1dae582e415370f93c04a0ae780023a7147b3082",
    "line_with_bump bump": "1663b64083a2e385890b5628918cf8a67b359bb62b4721b5de0918e7e5d2e311",
}


def _partition_digest(p):
    c = geometry.chromatic_colouring(geometry.adjacency_graph(p))
    named = [("vertices", p.vertices)]
    named += [(f"subdomain {s.id} loop {i}", np.array(loop, dtype=np.int64))
              for s in p.subdomains for i, loop in enumerate(s.loops)]
    named += [(f"interface {t.id} {t.k} {t.l}", np.array(t.segments, dtype=np.int64))
              for t in p.interfaces]
    named += [("lengths", np.array([t.length for t in p.interfaces])),
              ("chi", np.int64(c.chi)),
              ("phi", np.array(sorted(c.phi.items()), dtype=np.int64))]
    return _digest(named)


@pytest.mark.parametrize("case", _PARTITION_CASES)
def test_partitions_are_pinned(case):
    name, params = _PARTITION_CASES[case]
    p = geometry.build_canonical_partition(name, params)
    assert _partition_digest(p) == _PARTITION_DIGESTS[case], \
        f"{case}: vertices, loops, interfaces or colouring changed"
