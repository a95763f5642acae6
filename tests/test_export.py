import math

import numpy as np
import pytest

from minkaehler import builtin_seed
from minkaehler.errors import DomainError
from minkaehler.export import (
    SliceSpec,
    export_csv,
    export_obj,
    export_slice,
    slice_chart,
    slice_from_json,
    slice_points,
)

from oracles import catenoid_closed_form, export_slice_per_cell


def read_obj(path):
    verts, faces = [], []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(x) for x in line.split()[1:]])
    return np.asarray(verts), faces


def edge_lengths(verts, faces):
    """Sorted unique grid-edge lengths keyed by vertex index pairs."""
    edges = set()
    for a, b, c, e in faces:
        edges.update(
            frozenset(pair) for pair in ((a, b), (b, c), (c, e), (e, a))
        )
    keyed = sorted(tuple(sorted(edge)) for edge in edges)
    return keyed, np.array(
        [np.linalg.norm(verts[i - 1] - verts[j - 1]) for i, j in keyed]
    )


@pytest.fixture(scope="module")
def catenoid_seed():
    return builtin_seed("catenoid")


class TestSliceSpec:
    def test_axes_must_differ(self):
        with pytest.raises(DomainError, match="distinct"):
            SliceSpec(axes=(1, 1))

    def test_counts_must_reach_two(self):
        with pytest.raises(DomainError, match="at least 2"):
            SliceSpec(counts=(1, 5))

    def test_unknown_field_is_rejected(self):
        with pytest.raises(DomainError, match="unknown field"):
            SliceSpec(field_name="g")

    def test_unknown_json_key_is_rejected(self):
        with pytest.raises(DomainError, match="unknown slice keys"):
            slice_from_json({"axis": [0, 1]})

    def test_json_round_trip(self):
        spec = slice_from_json(
            {
                "axes": [0, 2],
                "counts": [3, 4],
                "fixed": {"1": 0.05},
                "field": "ftheta",
                "theta": 0.7,
            }
        )
        assert spec.axes == (0, 2)
        assert spec.counts == (3, 4)
        assert spec.fixed == {1: 0.05}
        assert spec.field_name == "ftheta" and spec.theta == 0.7


class TestSlicePoints:
    def test_axis_out_of_range(self, catenoid_seed):
        chart = slice_chart(catenoid_seed, SliceSpec())
        with pytest.raises(DomainError, match="out of range"):
            slice_points(chart, SliceSpec(axes=(0, 5)))

    def test_axis_cannot_be_free_and_pinned(self, catenoid_seed):
        chart = slice_chart(catenoid_seed, SliceSpec())
        with pytest.raises(DomainError, match="both free and pinned"):
            slice_points(chart, SliceSpec(fixed={0: 0.1}))

    def test_points_outside_domain_are_refused(self, catenoid_seed):
        chart = slice_chart(catenoid_seed, SliceSpec())
        spec = SliceSpec(counts=(2, 2), box=((-10.0, 10.0), (-10.0, 10.0)))
        with pytest.raises(DomainError, match="leaves the chart domain"):
            slice_points(chart, spec)

    def test_m4r5_pinned_fiber_coordinates(self):
        seed = builtin_seed("m4r5")
        spec = SliceSpec(axes=(0, 2), counts=(3, 3), fixed={1: 0.05})
        chart = slice_chart(seed, spec)
        pts = slice_points(chart, spec)
        assert pts.shape == (9, 4)
        assert np.all(pts[:, 1] == 0.05)
        assert np.all(pts[:, 3] == 0.0)  # unpinned non-free axes sit at zero
        # u-major ordering: the second axis varies fastest
        assert pts[0, 2] != pts[1, 2] and pts[0, 0] == pts[1, 0]


class TestObjFormat:
    def test_two_by_two_grid_is_one_quad(self, tmp_path):
        values = np.arange(12.0).reshape(4, 3)
        path = tmp_path / "quad.obj"
        export_obj(path, values, (2, 2), name="demo")
        text = path.read_text()
        assert text.splitlines()[0] == "o demo"
        verts, faces = read_obj(path)
        assert verts.shape == (4, 3)
        assert faces == [[1, 3, 4, 2]]

    def test_row_count_mismatch_is_rejected(self, tmp_path):
        with pytest.raises(DomainError, match="must equal"):
            export_obj(tmp_path / "x.obj", np.zeros((5, 3)), (2, 2))

    def test_needs_three_ambient_coordinates(self, tmp_path):
        with pytest.raises(DomainError, match="three ambient"):
            export_obj(tmp_path / "x.obj", np.zeros((4, 2)), (2, 2))


def write_csv(path, coords, values, residuals):
    """``export_csv`` after the ``export_obj`` whose vertex text it reuses,
    on a one-column grid of the value rows."""
    text = export_obj(path.with_suffix(".obj"), values, (len(values), 1))
    export_csv(path, coords, values, residuals, text)


class TestCsvFormat:
    def test_residual_column_length_is_checked(self, tmp_path):
        with pytest.raises(DomainError, match="wrong length"):
            write_csv(
                tmp_path / "x.csv",
                np.zeros((3, 2)),
                np.zeros((3, 3)),
                {"broken": [1.0]},
            )

    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(
            path,
            np.zeros((2, 2)),
            np.ones((2, 3)),
            {"zeta": [0.5, 0.25], "alpha": [1.0, 2.0]},
        )
        lines = path.read_text().splitlines()
        assert lines[0] == "x0,x1,f0,f1,f2,alpha,zeta"
        assert len(lines) == 3
        assert lines[1].split(",")[5] == "1"  # alpha column before zeta


SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3, 2**53 + 1.0]


def _cells(row):
    return [format(float(x), ".17g") for x in row]


class TestNumberFormat:
    """Every number is written as format(x, ".17g"), on rows that cross the
    writer's chunk boundaries."""

    @staticmethod
    def _table(rows, cols):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
        table.flat[: len(SPECIAL)] = SPECIAL
        table.flat[-len(SPECIAL) :] = [-x for x in SPECIAL]
        return table

    @pytest.mark.parametrize("as_list", [False, True])
    def test_csv_cells_are_17_significant_digits(self, tmp_path, as_list):
        coords, values = self._table(600, 2), self._table(600, 3)[::-1]
        res = {"b": self._table(600, 1)[:, 0], "a": SPECIAL * 100}
        if as_list:
            res = {k: list(map(float, v)) for k, v in res.items()}
        path = tmp_path / "t.csv"
        write_csv(path, coords, values, res)
        lines = path.read_bytes().decode("ascii").split("\n")
        assert lines[0] == "x0,x1,f0,f1,f2,a,b" and lines[-1] == ""
        expect = [
            ",".join(_cells(coords[r]) + _cells(values[r]) + _cells([res["a"][r], res["b"][r]]))
            for r in range(600)
        ]
        assert lines[1:-1] == expect

    def test_obj_vertices_are_17_significant_digits(self, tmp_path):
        values = self._table(20 * 30, 4)
        path = tmp_path / "t.obj"
        text = export_obj(path, values, (20, 30), name="demo")
        expect = ["o demo"] + ["v " + " ".join(_cells(row[:3])) for row in values]
        for i in range(19):
            for j in range(29):
                a = i * 30 + j + 1
                expect.append(f"f {a} {a + 30} {a + 31} {a + 1}")
        assert path.read_bytes().decode("ascii") == "\n".join(expect) + "\n"
        # the vertex text the CSV reuses: one a,b,c line per row
        assert "".join(text) == "".join(",".join(_cells(row[:3])) + "\n" for row in values)


class TestSharedText:
    """``export_slice`` writes the bytes of a writer that formats every cell
    on its own, OBJ then CSV, on slices that stress the shared vertex text
    (row counts that cross ``_CHUNK`` unevenly) and the coordinate memo
    (repeated, pinned and signed-zero coordinates)."""

    @pytest.mark.parametrize(
        "seed, spec",
        [
            # -0.0 pinned in one column, 0.0 in another; the 23-point axis holds 0.0
            ("m4r5", SliceSpec(counts=(37, 23), fixed={2: -0.0, 3: 0.0}, field_name="ftheta", theta=0.7)),
            # axes in reverse order, axis 1 pinned and axis 3 left at 0
            ("m4r5", SliceSpec(axes=(2, 0), counts=(37, 23), fixed={1: 0.05}, field_name="ftheta", theta=2.9)),
            ("enneper", SliceSpec(counts=(33, 17), field_name="fbar")),
            ("catenoid", SliceSpec(counts=(9, 31), field_name="f")),
        ],
        ids=["m4r5-signed-zero", "m4r5-axes-2-0", "enneper-fbar", "catenoid-f"],
    )
    def test_bytes_equal_the_per_cell_writer(self, tmp_path, seed, spec):
        seed = builtin_seed(seed)
        grid = slice_points(slice_chart(seed, spec), spec)
        assert np.any(grid == 0.0)  # an odd count puts 0.0 on the grid
        export_slice(seed, spec, tmp_path / "a.obj", tmp_path / "a.csv", name="s")
        export_slice_per_cell(seed, spec, tmp_path / "b.obj", tmp_path / "b.csv", name="s")
        for suffix in ("obj", "csv"):
            assert (tmp_path / f"a.{suffix}").read_bytes() == (tmp_path / f"b.{suffix}").read_bytes()
        if -0.0 in spec.fixed.values():
            assert (tmp_path / "a.csv").read_text().splitlines()[1].split(",")[2:4] == ["-0", "0"]


class TestExportedGeometry:
    def test_catenoid_vertices_match_closed_form(self, tmp_path, catenoid_seed):
        spec = SliceSpec(counts=(4, 4))
        chart = slice_chart(catenoid_seed, spec)
        pts = slice_points(chart, spec)
        obj = tmp_path / "catenoid.obj"
        csv = tmp_path / "catenoid.csv"
        count = export_slice(catenoid_seed, spec, obj, csv)
        assert count == 16
        verts, faces = read_obj(obj)
        assert verts.shape == (16, 3)
        assert len(faces) == 9
        base = catenoid_seed.basepoint
        for row, p in zip(verts, pts):
            z = base + p[0] + 1j * p[1]
            np.testing.assert_allclose(row, catenoid_closed_form(z), atol=1e-9)

    def test_flat_residual_columns_on_catenoid(self, tmp_path, catenoid_seed):
        spec = SliceSpec(counts=(3, 3))
        obj = tmp_path / "c.obj"
        csv = tmp_path / "c.csv"
        export_slice(catenoid_seed, spec, obj, csv)
        lines = csv.read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["x0", "x1", "f0", "f1", "f2", "anticommutation", "minimality"]
        data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert data.shape == (9, 7)
        assert data[:, 5].max() < 1e-12  # anticommutation defect
        assert data[:, 6].max() < 1e-12  # minimality defect

    def test_export_calls_no_eigen_solver(self, tmp_path, monkeypatch):
        # the residual columns read A and its Frobenius G-norm, never an
        # eigen-decomposition
        calls = []

        def counted(name, routine):
            def call(*args, **kwargs):
                calls.append(name)
                return routine(*args, **kwargs)

            return call

        for name in ("eigvalsh", "eigh", "eigvals", "eig"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        spec = SliceSpec(counts=(8, 8), fixed={2: 0.1, 3: -0.05}, field_name="ftheta", theta=0.7)
        assert export_slice(builtin_seed("m4r5"), spec, tmp_path / "s.obj", tmp_path / "s.csv") == 64
        assert calls == []

    def test_phase_family_meshes_are_isometric(self, tmp_path):
        # tiny grid: chord lengths approximate intrinsic distances to
        # third order, and the induced metric is shared across the family
        seed = builtin_seed("enneper")
        box = ((-2e-3, 2e-3), (-2e-3, 2e-3))
        lengths = []
        for k in range(8):
            spec = SliceSpec(
                counts=(4, 4), box=box, field_name="ftheta", theta=k * math.pi / 8
            )
            obj = tmp_path / f"frame{k}.obj"
            export_slice(seed, spec, obj, tmp_path / f"frame{k}.csv")
            verts, faces = read_obj(obj)
            keyed, vals = edge_lengths(verts, faces)
            assert len(keyed) == 24  # 2 * 3 * 4 grid edges
            lengths.append(vals)
        for k in range(1, 8):
            np.testing.assert_allclose(lengths[k], lengths[0], atol=1e-8)

    def test_field_names_pick_family_members(self, catenoid_seed):
        f0 = slice_chart(catenoid_seed, SliceSpec(field_name="f"))
        fbar = slice_chart(catenoid_seed, SliceSpec(field_name="fbar"))
        fth = slice_chart(catenoid_seed, SliceSpec(field_name="ftheta", theta=0.3))
        assert f0.theta == 0.0
        assert fbar.theta == pytest.approx(math.pi / 2)
        assert fth.theta == 0.3
