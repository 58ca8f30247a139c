"""File-format tests: CSV and plot files."""

from stapbench import storage


class TestCsv:
    def test_header_and_digits(self, tmp_path):
        path = tmp_path / "out.csv"
        storage.write_csv(path, [("smi", 100, 12.3456789012345, 0.5, 10)])
        lines = path.read_text().splitlines()
        assert lines[0] == "algorithm,x_value,metric,std,runs"
        assert lines[1] == "smi,100,12.3456789,0.5,10"

    def test_deterministic_order(self, tmp_path):
        rows = [("a", 1, 0.1, 0.0, 1), ("b", 2, 0.2, 0.0, 1)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        storage.write_csv(p1, rows)
        storage.write_csv(p2, rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_xy_file(self, tmp_path):
        path = tmp_path / "curve.dat"
        storage.write_xy(path, [1, 2], [0.25, 0.5])
        assert path.read_text() == "1 0.25\n2 0.5\n"
