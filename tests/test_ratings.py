import re

import numpy as np
import pytest

from oracles import line_by_line_ratings
from triosplit import ratings as ratings_mod
from triosplit.ratings import ingest_ratings, load_ratings, split_observations


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def synth_lines(rng, count, users=30, items=40):
    lines = []
    for k in range(count):
        u = int(rng.integers(1, users + 1)) * 7          # sparse, unordered ids
        i = int(rng.integers(1, items + 1)) * 3
        r = int(rng.integers(1, 6))
        lines.append(f"{u}::{i}::{r}::{978300000 + k}")
    return lines


class TestLoadRatings:
    def test_three_lines_no_test_split(self, tmp_path):
        path = write_lines(tmp_path / "r.dat", [
            "1::10::5::978300760",
            "1::20::3::978302109",
            "2::10::4::978301968",
        ])
        train, test = ingest_ratings(path, split_seed=0, test_fraction=0.0)
        assert len(train) == 3
        assert len(test) == 0
        assert train.shape == (2, 2)

    def test_ids_remapped_by_sorted_original(self, tmp_path):
        path = write_lines(tmp_path / "r.dat", [
            "50::9::1::1", "7::300::2::2", "7::9::3::3",
        ])
        ds = load_ratings(path)
        assert ds.n_users == 2 and ds.n_items == 2
        # user 7 -> 0, user 50 -> 1; item 9 -> 0, item 300 -> 1
        pairs = dict(zip(zip(ds.user_index, ds.item_index), ds.ratings))
        assert pairs[(1, 0)] == 1.0
        assert pairs[(0, 1)] == 2.0
        assert pairs[(0, 0)] == 3.0

    def test_duplicates_keep_last_and_count(self, tmp_path):
        path = write_lines(tmp_path / "r.dat", [
            "1::10::5::1", "1::10::2::2", "2::10::4::3",
        ])
        ds = load_ratings(path)
        assert ds.duplicates == 1
        pairs = dict(zip(zip(ds.user_index, ds.item_index), ds.ratings))
        assert pairs[(0, 0)] == 2.0

    def test_malformed_line_reports_number(self, tmp_path):
        path = write_lines(tmp_path / "r.dat", ["1::10::5::1", "garbage line"])
        with pytest.raises(ValueError, match=":2:"):
            load_ratings(path)

    def test_unparsable_fields_report_number(self, tmp_path):
        path = write_lines(tmp_path / "r.dat", ["1::10::five::1"])
        with pytest.raises(ValueError, match=":1:"):
            load_ratings(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_lines(tmp_path / "r.dat", [])
        with pytest.raises(ValueError, match="no ratings"):
            load_ratings(path)

    def test_out_of_scale_rating_rejected(self, tmp_path):
        path = write_lines(tmp_path / "r.dat", ["1::10::9::1"])
        with pytest.raises(ValueError, match="outside"):
            load_ratings(path)

    def test_timestamp_beyond_int64_reports_number(self, tmp_path):
        path = write_lines(tmp_path / "r.dat", ["1::10::5::1", "2::20::4::99999999999999999999"])
        with pytest.raises(ValueError, match=":2: timestamp"):
            load_ratings(path)

    def test_ids_beyond_int64_stay_distinct(self, tmp_path):
        big = 2 ** 63  # beside a small ID numpy would hold these as float64, where big + 1 rounds to big
        path = write_lines(tmp_path / "r.dat", ["7::10::3::1", f"{big}::10::5::2", f"{big + 1}::10::4::3"])
        ds = load_ratings(path)
        assert ds.n_users == 3 and ds.duplicates == 0
        assert ds.ratings.tolist() == [3.0, 5.0, 4.0]


def canonical_lines(rng, count):
    """Canonical records: sparse IDs up to 1e12, whole, half-star and long
    decimal ratings, and repeated (user, item) pairs."""
    users = rng.choice(10 ** 12, size=12, replace=False) + 1
    items = rng.choice(10 ** 6, size=15, replace=False)
    spellings = ["1", "5", "3", "4.5", "2.", "1.25", "05", "3.1415926535897932384626", "4.999999999999999999"]
    return [f"{users[rng.integers(12)]}::{items[rng.integers(15)]}::"
            f"{spellings[rng.integers(len(spellings))]}::{rng.integers(10 ** 10)}"
            for _ in range(count)]


def accepted_variants(rng, lines):
    """Files the line scan accepts but that are not canonical: the records of
    ``lines`` respelled, or with line ``k`` replaced."""
    body = "".join(line + "\n" for line in lines)
    k = int(rng.integers(len(lines)))
    u, i, r, t = lines[k].split("::")

    def with_line(new):
        return "".join(line + "\n" for line in lines[:k] + [new] + lines[k + 1:])

    return {
        "blank-lines": "\n" + body.replace("\n", "\n\n", 3),
        "surrounding-whitespace": with_line(f"  {lines[k]}\t"),
        "crlf": body.replace("\n", "\r\n"),
        "no-final-newline": body[:-1],
        "underscore": with_line(f"{u}::{i}::{r}::1_0"),
        "id-beyond-float64": with_line(f"{2 ** 53 + 1}::{i}::{r}::{t}"),
        "id-beyond-int64": with_line(f"{2 ** 64 + 3}::{i}::{r}::{t}"),
    }


def assert_matches_oracle(path):
    ds = load_ratings(path)
    uidx, iidx, vals, times, n_users, n_items, duplicates = line_by_line_ratings(path)
    for got, want in ((ds.user_index, uidx), (ds.item_index, iidx),
                      (ds.ratings, vals), (ds.timestamps, times)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert (ds.n_users, ds.n_items, ds.duplicates) == (n_users, n_items, duplicates)
    assert all(type(v) is int for v in (ds.n_users, ds.n_items, ds.duplicates))


def error_line(call, path):
    with pytest.raises(ValueError) as exc:
        call(path)
    return int(re.search(r":(\d+): ", str(exc.value)).group(1))


class TestAgainstLineByLineOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_canonical_files_take_the_array_path(self, seed, tmp_path, monkeypatch):
        rng = np.random.default_rng(seed)
        lines = canonical_lines(rng, int(rng.integers(1, 300)))
        path = write_lines(tmp_path / "r.dat", lines)

        def no_scan(*args):
            raise AssertionError("a canonical file fell back to the line scan")

        monkeypatch.setattr(ratings_mod, "_scan_lines", no_scan)
        assert_matches_oracle(path)

    @pytest.mark.parametrize("seed", range(4))
    def test_accepted_non_canonical_files(self, seed, tmp_path):
        rng = np.random.default_rng(100 + seed)
        lines = canonical_lines(rng, 60)
        for name, text in accepted_variants(rng, lines).items():
            path = tmp_path / f"{name}.dat"
            path.write_bytes(text.encode("ascii"))
            assert_matches_oracle(str(path))

    # the last eight hold only digits, ':' and '.', so only the canonical
    # file's structure tells them from good lines; their rating is a whole
    # number, so no misplaced '.' gives them away
    MALFORMED = {"field-count": "{u}::{i}::{r}",
                 "unparsable": "{u}::{i}::{r}x::{t}",
                 "out-of-range": "{u}::{i}::5.5::{t}",
                 "int64-overflow": "{u}::{i}::{r}::9223372036854775808",
                 "empty-field": "{u}::::3::{t}",
                 "single-colons": "{u}:{i}:3::{t}::{t}",
                 "single-colons-then-empty-field": "{u}:{i}:3::{t}::{t}\n{u}::::3::{t}",
                 "fields-spill-over": "{u}::{i}::3::{t}::{t}\n7::4::{t}",
                 "dot-in-id": "{u}.5::{i}::3::{t}",
                 "dot-only-rating": "{u}::{i}::.::{t}",
                 "empty-first-field": "::{i}::3::{t}",
                 "empty-last-field": "{u}::{i}::3::"}

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", list(MALFORMED))
    def test_malformed_line_number_matches_oracle(self, kind, seed, tmp_path):
        rng = np.random.default_rng(200 + seed)
        lines = canonical_lines(rng, 40)
        k = int(rng.integers(len(lines)))
        u, i, r, t = lines[k].split("::")
        lines[k] = self.MALFORMED[kind].format(u=u, i=i, r=r, t=t)
        path = write_lines(tmp_path / "r.dat", lines)
        assert error_line(load_ratings, path) == error_line(line_by_line_ratings, path) == k + 1


class TestSplit:
    def test_partition_is_disjoint_and_complete(self, tmp_path):
        rng = np.random.default_rng(0)
        path = write_lines(tmp_path / "big.dat", synth_lines(rng, 1000))
        ds = load_ratings(path)
        train, test = split_observations(ds, split_seed=3, test_fraction=0.2)
        total = len(ds.ratings)
        assert len(test) == round(0.2 * total)
        assert len(train) + len(test) == total
        train_keys = set(zip(train.rows.tolist(), train.cols.tolist()))
        test_keys = set(zip(test.rows.tolist(), test.cols.tolist()))
        assert not train_keys & test_keys
        all_keys = set(zip(ds.user_index.tolist(), ds.item_index.tolist()))
        assert train_keys | test_keys == all_keys

    def test_deterministic_in_seed(self, tmp_path):
        rng = np.random.default_rng(1)
        path = write_lines(tmp_path / "big.dat", synth_lines(rng, 200))
        ds = load_ratings(path)
        a_train, a_test = split_observations(ds, split_seed=7, test_fraction=0.25)
        b_train, b_test = split_observations(ds, split_seed=7, test_fraction=0.25)
        assert np.array_equal(a_train.values, b_train.values)
        assert np.array_equal(a_test.rows, b_test.rows)

    def test_bad_fraction_rejected(self, tmp_path):
        path = write_lines(tmp_path / "r.dat", ["1::10::5::1"])
        ds = load_ratings(path)
        with pytest.raises(ValueError, match="test_fraction"):
            split_observations(ds, 0, 1.0)
