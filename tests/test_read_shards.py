"""engine.scan.read_shards packs whole small files into tables of up to
``batch_rows`` rows: a file is never split unless it alone exceeds
``batch_rows``, rows keep file order, and a schema change starts a new
table."""

import logging
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from miller_ray.engine import scan
from miller_ray.pipelines import tokens as T


def _write_numbered(tmp_path, sizes: list[int]) -> list[str]:
    """One file per size; column ``i`` numbers the rows of all files in
    file order, in row groups of 500 so runs cross them."""
    paths, start = [], 0
    for j, n in enumerate(sizes):
        p = str(tmp_path / f"part-{j:05d}.parquet")
        pq.write_table(pa.table({"i": np.arange(start, start + n)}), p,
                       row_group_size=500)
        paths.append(p)
        start += n
    return paths


def _path_rows(t: pa.Table) -> list[tuple[str, int]]:
    """(path, rows) of each file's run in table ``t``, in order."""
    runs: list[tuple[str, int]] = []
    for p in t["path"].to_pylist():
        if runs and runs[-1][0] == p:
            runs[-1] = (p, runs[-1][1] + 1)
        else:
            runs.append((p, 1))
    return runs


def test_read_files_packs_whole_files_in_order(tmp_path):
    # ten 1000-row files with one 7000-row file among them
    sizes = [1000] * 5 + [7000] + [1000] * 5
    paths = _write_numbered(tmp_path, sizes)
    tables = list(scan._read_files(paths, 3000, True))
    runs = [_path_rows(t) for t in tables]
    # every small file whole in one table; the big one in 3000-row runs
    assert all(n == 1000 for rs in runs for p, n in rs if p != paths[5])
    assert [n for rs in runs for p, n in rs if p == paths[5]] == [3000, 3000, 1000]
    # 3 small | 2 small | big | big | big | big's tail + 2 small | 3 small
    assert [t.num_rows for t in tables] == [3000, 2000, 3000, 3000, 3000, 3000]
    assert len(_path_rows(tables[4])) == 3
    rows = pa.concat_tables(tables)
    assert rows["i"].to_numpy().tolist() == list(range(sum(sizes)))
    assert [p for p, _ in _path_rows(rows)] == paths


def test_files_with_other_schemas_start_a_new_table(tmp_path):
    paths = []
    for j, typ in enumerate([pa.int32(), pa.int32(), pa.int64(), pa.int32()]):
        p = str(tmp_path / f"part-{j}.parquet")
        pq.write_table(pa.table({"n_tok": pa.array(np.arange(10) + 10 * j, typ)}), p)
        paths.append(p)
    tables = list(scan._read_files(paths, 1000, True))
    assert [t.num_rows for t in tables] == [20, 10, 10]
    assert [t.schema.field("n_tok").type for t in tables] == \
        [pa.int32(), pa.int64(), pa.int32()]
    assert [v for t in tables for v in t["n_tok"].to_pylist()] == list(range(40))


def _small_shards(tmp_path, monkeypatch, n_files=16, rows=400):
    from miller_ray.schema import generate_tokens_table

    for i in range(n_files):
        pq.write_table(generate_tokens_table(rows, seed=i),
                       tmp_path / f"part-{i:05d}.parquet")
    monkeypatch.setattr(T, "tokens_parquet_path", lambda n: str(tmp_path))
    return n_files * rows


def _read_tasks(caplog) -> int:
    line = [r.getMessage() for r in caplog.records
            if r.getMessage().startswith("read_shards:")][-1]
    return int(re.search(r"read_tasks=(\d+)", line).group(1))


def test_read_tokens_packs_small_shards(ray_session, tmp_path, monkeypatch, caplog):
    """16 shards of 400 rows read in batches of 3125 rows: at most one
    part-filled table per read task beyond ceil(6400 / 3125)."""
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    n = _small_shards(tmp_path, monkeypatch)
    ds = T.read_tokens("", n_rows=n)
    sizes = ds.map_batches(lambda b: pa.table({"rows": [b.num_rows]}),
                           batch_format="pyarrow", batch_size=None).to_pandas()["rows"]
    assert sizes.sum() == n
    assert len(sizes) <= -(-n // 3125) + _read_tasks(caplog) < 16
    assert (sizes <= 3125).all() and (sizes % 400 == 0).all()


def test_sketch_build_folds_one_partial_per_packed_table(ray_session, tmp_path,
                                                         monkeypatch, caplog):
    """The merge_partials line counts the partial rows that reached the
    driver: no more than the packed tables, not one per shard."""
    caplog.set_level(logging.DEBUG, logger="miller_ray")
    n = _small_shards(tmp_path, monkeypatch)
    ds = T.read_tokens("", n_rows=n)
    tables = ds.map_batches(lambda b: pa.table({"rows": [b.num_rows]}),
                            batch_format="pyarrow", batch_size=None).count()
    caplog.clear()
    sk = T.sketch_build(ds)
    plans = [dict(re.findall(r"(\w+)=(\S+)", r.getMessage())) for r in caplog.records
             if r.getMessage().startswith("merge_partials:")]
    assert len(plans) == 1
    assert 1 <= int(plans[0]["partials"]) <= tables < 16
    assert {"estimated_blocks", "levels", "fallback", "branch"} <= set(plans[0])
    assert sk["kll_n_tok"].n == n
