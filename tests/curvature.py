"""Frame curvature and metricity over a generic scalar field, for the tests.

No code path of the package calls these: they are independent routes that
cross-check the Koszul connection and the ``(*F)^+`` Einstein test.
"""

from nahmpole._float import _tensor3
from nahmpole.scalars import context


def metricity_residual(field, conn):
    """``G^k_ij + G^j_ik`` (zero iff the frame metric is parallel)."""
    with context(field):
        return _tensor3(lambda k, i, j: conn[k][i][j] + conn[j][i][k])


def ricci_tensor(field, c, conn):
    """Frame Ricci tensor, computed from the full curvature tensor.

    ``R^k_lij = G^m_jl G^k_im - G^m_il G^k_jm - c^m_ij G^k_ml`` and
    ``Ric_lj = sum_i R^i_lij``.  This is the independent route used to
    cross-check the ``(*F)^+`` Einstein test.
    """
    ric = [[field.zero] * 3 for _ in range(3)]
    with context(field):
        for l in range(3):
            for j in range(3):
                s = field.zero
                for i in range(3):
                    for m in range(3):
                        s = s + conn[m][j][l] * conn[i][i][m] - conn[m][i][l] * conn[i][j][m]
                        s = s - c[m][i][j] * conn[i][m][l]
                ric[l][j] = s
    return tuple(tuple(r) for r in ric)
