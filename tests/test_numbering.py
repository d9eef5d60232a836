"""Pinned numbering of the mesh and the broken dof layout.

Every array of `mesh.triangulate` and of `forms.broken_dof_layout`, for each
canonical geometry (box radius 4, default parameters) at levels 0-3, must
hash to the digest recorded here.  A speed change that renumbers nodes,
triangles, interface edges or dofs therefore fails this test instead of
moving eigenvalues at rounding level.  A deliberate renumbering must update
the digests together with a note on why the numbering changed."""

import hashlib

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
    ("wedge", 0): ("d9a65eb76b75efdf7acaf8a5cca5007ef77b4cc8a0e4c6299d633108f5a6a301",
                    "6569eafabd9043f0061e17a785c93673f2925e3010315ff7eb2ae7ed2f4887ff"),
    ("wedge", 1): ("3c176dfd9af4187c6dc82ccf1a95c1118b7ae7f678eb3aaaa26c7815e891710e",
                    "e843850186663fde0894d2b7515a1f630c3887297f0b67deb3b43685eab045f2"),
    ("wedge", 2): ("6f8b49727115992bc6633e91f9f586bd2cb1194feac5f4d82279d219b7796bf0",
                    "29d52b5b623a8c2400745ca5be973360f10eaa012abb331b62a38be146ac8813"),
    ("wedge", 3): ("6ad801042f080a82d351e716852e6a193cdffdfc06ced860213b234079c95795",
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
        dof_node, dof_sub, sub_node_dof = forms.broken_dof_layout(m)
        mesh_digest = _digest([(f, getattr(m, f)) for f in _MESH_ARRAYS])
        layout_digest = _digest(
            [("dof_node", dof_node), ("dof_subdomain", dof_sub)]
            + [(f"sub_node_dof[{k}]", v) for k, v in sub_node_dof.items()])
        assert (mesh_digest, layout_digest) == _DIGESTS[name, level], \
            f"{name} level {level}: mesh or layout numbering changed"
