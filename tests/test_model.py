import gzip
import os
import random
import threading
import warnings

import numpy as np
import pytest

import opinion_game.model as model
from opinion_game import (
    Budgets,
    InvestmentPlan,
    Network,
    Topology,
    generate_weights,
    load_edge_list,
    save_edge_list,
    validate,
)

from conftest import (
    arc_list,
    loop_build_weights,
    loop_load_edge_list,
    plan_total,
    plan_violations,
    random_network,
)


def write(tmp_path, text):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    return path


class TestLoadEdgeList:
    def test_symmetrize_duplicates_both_directions(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "0 1\n"), symmetrize=True)
        assert topo.n == 2
        assert arc_list(topo) == [(0, 1, 0.0), (1, 0, 0.0)]

    def test_empty_file_is_an_error(self, tmp_path):
        with pytest.raises(ValueError, match="no nodes"):
            load_edge_list(write(tmp_path, ""))

    def test_weighted_arcs_and_isolated_node(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "0 2 0.5\n2 0 0.25\n"), symmetrize=False)
        assert topo.n == 3
        assert arc_list(topo) == [(0, 2, 0.5), (2, 0, 0.25)]
        assert topo.out_degrees().tolist() == [1, 0, 1]

    def test_parse_failure_reports_line_number(self, tmp_path):
        with pytest.raises(ValueError, match="line 2"):
            load_edge_list(write(tmp_path, "0 1\n0 x\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ValueError, match="line 1"):
            load_edge_list(write(tmp_path, "0 1 2 3\n"))

    def test_negative_id(self, tmp_path):
        with pytest.raises(ValueError, match="negative node id"):
            load_edge_list(write(tmp_path, "-1 0\n"))

    def test_duplicate_edge(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            load_edge_list(write(tmp_path, "0 1 0.2\n0 1 0.3\n"))

    def test_symmetrize_collides_with_reverse_listing(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            load_edge_list(write(tmp_path, "0 1\n1 0\n"), symmetrize=True)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "# header\n\n0 1 0.5\n  # indented comment\n"))
        assert arc_list(topo) == [(0, 1, 0.5)]

    def test_default_weight_placeholder(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "0 1\n"))
        assert arc_list(topo) == [(0, 1, 0.0)]

    def test_self_loop_symmetrized_once(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "0 0 0.4\n1 0 0.2\n"), symmetrize=True)
        assert arc_list(topo) == [(0, 0, 0.4), (1, 0, 0.2), (0, 1, 0.2)]
        with pytest.raises(ValueError, match=r"line 2: duplicate edge \(0, 0\)$"):
            load_edge_list(write(tmp_path, "0 0\n0 0\n"), symmetrize=True)

    def test_mixed_two_and_three_column_lines(self, tmp_path):
        path = write(tmp_path, "0 1\n1 2 0.5\n\n2 0\n")
        assert arc_list(load_edge_list(path)) == [(0, 1, 0.0), (1, 2, 0.5), (2, 0, 0.0)]
        topo = load_edge_list(path, symmetrize=True)
        assert arc_list(topo) == [
            (0, 1, 0.0), (1, 0, 0.0), (1, 2, 0.5), (2, 1, 0.5), (2, 0, 0.0), (0, 2, 0.0),
        ]
        assert topo.src.dtype == topo.dst.dtype == np.int64
        assert not topo.src.flags.writeable and not topo.weight.flags.writeable

    @pytest.mark.parametrize("text, symmetrize, message", [
        ("0 1\n# c\n\n1 2\n0 1\n", False, "line 5: duplicate edge (0, 1)"),
        # the first arc, in file order, that repeats an earlier one
        ("5 6\n0 1\n5 6\n0 1\n", False, "line 3: duplicate edge (5, 6)"),
        ("0 1\n2 3\n1 0\n", True, "line 3: duplicate edge (1, 0)"),
        ("0 1\n3 1\n1 3\n", True, "line 3: duplicate edge (1, 3)"),
        ("0 1\n1 0\n", False, None),
    ])
    def test_duplicate_line_number(self, tmp_path, text, symmetrize, message):
        path = write(tmp_path, text)
        if message is None:
            assert load_edge_list(path, symmetrize=symmetrize).n == 2
            return
        with pytest.raises(ValueError) as exc:
            load_edge_list(path, symmetrize=symmetrize)
        assert str(exc.value) == f"{path}: {message}"

    def test_malformed_line_reported_before_an_earlier_duplicate(self, tmp_path):
        # every line is parsed before duplicates are looked for
        with pytest.raises(ValueError, match="line 3: could not parse"):
            load_edge_list(write(tmp_path, "0 1\n0 1\n0 x\n"))

    @pytest.mark.parametrize("text, symmetrize, message", [
        # a repeat of an odd line's arc on a later bulk line, and the reverse
        ("+1 2\n1 2\n", False, "line 2: duplicate edge (1, 2)"),
        ("1 2\n+1 2\n", False, "line 2: duplicate edge (1, 2)"),
        ("0 1 inf\n0 1\n", False, "line 2: duplicate edge (0, 1)"),
        ("0 1\n0 1 inf\n", False, "line 2: duplicate edge (0, 1)"),
        ("+1 2\n2 1\n", True, "line 2: duplicate edge (2, 1)"),
        ("3 4\n2 1\n٣ 4\n", False, "line 3: duplicate edge (3, 4)"),
        # a weight that passes the byte filter but not float(), after an
        # earlier malformed line, and before a later one
        ("0 x\n0 1 1e\n", False, "line 1: could not parse '0 x'"),
        ("0 1\n1 2 1e\n0 x\n", False, "line 2: could not parse '1 2 1e'"),
        ("0 1 0.5\n1 2 1.2.3\n", False, "line 2: could not parse '1 2 1.2.3'"),
        ("0 1\n0 1 1 1\n2 3 -\n", False,
         "line 2: expected 'src dst [weight]', got '0 1 1 1'"),
    ])
    def test_odd_and_bulk_lines_in_line_order(self, tmp_path, text, symmetrize, message):
        path = write(tmp_path, text)
        with pytest.raises(ValueError) as exc:
            load_edge_list(path, symmetrize=symmetrize)
        assert str(exc.value) == f"{path}: {message}"

    def test_odd_arcs_merged_in_line_order(self, tmp_path):
        path = write(tmp_path, "# src dst\n0 1\n+1 2 0.5\n2\t3\n0 2 inf\n3 0 1e-3\n")
        assert arc_list(load_edge_list(path)) == [
            (0, 1, 0.0), (1, 2, 0.5), (2, 3, 0.0), (0, 2, float("inf")), (3, 0, 1e-3),
        ]

    def test_header_then_bulk_lines(self, tmp_path):
        lines = [f"{i} {(i * 7 + 1) % 5000}" for i in range(5000)]
        topo = load_edge_list(write(tmp_path, "# src dst\n" + "\n".join(lines) + "\n"))
        assert topo.n == 5000
        assert topo.src.tolist() == list(range(5000))
        assert topo.dst.tolist() == [(i * 7 + 1) % 5000 for i in range(5000)]
        assert not topo.weight.any()

    def test_node_id_too_large(self, tmp_path):
        path = write(tmp_path, "0 1\n1 99999999999999999999\n")
        with pytest.raises(ValueError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}: line 2: node id too large in '1 99999999999999999999'"
        # a long id with leading zeros is read one line at a time
        path = write(tmp_path, "0000000000000000000000001 0\n")
        assert arc_list(load_edge_list(path)) == [(1, 0, 0.0)]

    def test_node_id_at_int64_max(self, tmp_path):
        # the node count, 2**63, would not fit in int64
        path = write(tmp_path, "0 1\n9223372036854775807 0\n")
        with pytest.raises(ValueError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}: line 2: node id too large in '9223372036854775807 0'"
        topo = load_edge_list(write(tmp_path, "9223372036854775806 0\n"))
        assert topo.n == 2**63 - 1

    def test_distinct_arcs_whose_packed_keys_wrap(self, tmp_path):
        # n = 2**32 + 1: the packed key src * n + dst of both arcs wraps to
        # one int64 value, yet the arcs differ (loaded only, never built, as
        # a matrix this size needs 32 GiB)
        topo = load_edge_list(write(tmp_path, "4294967296 0\n0 4294967296\n"))
        assert topo.n == 2**32 + 1
        assert arc_list(topo) == [(2**32, 0, 0.0), (0, 2**32, 0.0)]

    @pytest.mark.parametrize("text, symmetrize, message", [
        ("3100000000 7\n5 5\n3100000000 7 0.5\n", False, "line 3: duplicate edge (3100000000, 7)"),
        ("3100000000 7\n7 3100000000\n", True, "line 2: duplicate edge (7, 3100000000)"),
        ("9223372036854775806 1\n1 1\n9223372036854775806 1\n", False,
         "line 3: duplicate edge (9223372036854775806, 1)"),
    ])
    def test_duplicate_with_ids_beyond_packed_keys(self, tmp_path, text, symmetrize, message):
        path = write(tmp_path, text)
        with pytest.raises(ValueError) as exc:
            load_edge_list(path, symmetrize=symmetrize)
        assert str(exc.value) == f"{path}: {message}"

    def test_invalid_utf8_reported_before_line_errors(self, tmp_path):
        # the bad byte lies past the first read chunk of a text-mode file
        path = tmp_path / "graph.txt"
        arcs = "".join(f"{i} {i + 1}\n" for i in range(4000))
        path.write_bytes(b"0 x\n" + arcs.encode() + b"0 1 \xff\n")
        with pytest.raises(UnicodeDecodeError):
            load_edge_list(path)

    def test_matches_loop_oracle_on_random_files(self, tmp_path):
        rng = random.Random(20181)
        loaded = {}
        for case in range(200):
            # two files of 12k lines, so that the bulk path runs in bulk
            lines = 12_000 if case in (7, 150) else rng.randint(1, 60)
            text = random_edge_list(rng, lines, faults=case == 150 or (case != 7 and rng.random() < 0.6))
            path = tmp_path / f"graph{case}.txt"
            path.write_bytes(text.encode("utf-8"))
            for symmetrize in (False, True):
                try:
                    expected = loop_load_edge_list(path, symmetrize)
                except ValueError as exc:
                    with pytest.raises(type(exc)) as got:
                        load_edge_list(path, symmetrize)
                    assert type(got.value) is type(exc)
                    assert str(got.value) == str(exc), text
                    continue
                topo = load_edge_list(path, symmetrize)
                loaded[case] = loaded.get(case, 0) + 1
                assert topo.n == expected[0], text
                for got_arr, want in zip((topo.src, topo.dst, topo.weight), expected[1:]):
                    assert got_arr.dtype == want.dtype
                    assert got_arr.tobytes() == want.tobytes(), text
        assert loaded[7] == 2 and 150 not in loaded and len(loaded) > 60

    @pytest.mark.parametrize("text, message", [
        # numpy drops a line's tail from any '#'; the format has whole
        # comment lines only
        ("0 1\n1 2#x\n", "line 2: could not parse '1 2#x'"),
        ("0 1\r1 2 #x\r", "line 2: could not parse '1 2 #x'"),
        ("# a # b\n0 1 0.5\n2 3 #\n", "line 3: could not parse '2 3 #'"),
    ])
    def test_hash_after_a_field_is_no_comment(self, tmp_path, text, message):
        path = tmp_path / "graph.txt"
        path.write_bytes(text.encode())
        with pytest.raises(ValueError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_comment_lines_holding_more_hashes(self, tmp_path):
        topo = load_edge_list(write(tmp_path, "# a # b\n  ## c\n\t#\n0 1\n1 2\n"))
        assert arc_list(topo) == [(0, 1, 0.0), (1, 2, 0.0)]

    def test_compressed_suffix_is_plain_text(self, tmp_path):
        # numpy given a path would decompress it by its suffix
        text = "# src dst\n0 1\n1 2 0.5\n"
        plain = load_edge_list(write(tmp_path, text))
        named_gz = tmp_path / "graph.gz"
        named_gz.write_text(text)
        assert arc_list(load_edge_list(named_gz)) == arc_list(plain)
        named_gz.write_text("0 1\n1 2\n")
        assert arc_list(load_edge_list(named_gz)) == [(0, 1, 0.0), (1, 2, 0.0)]

    @pytest.mark.parametrize("name, by_path", [
        ("graph.txt", True), ("graph", True), ("graph.gz.txt", True), ("graph.GZ", True),
        ("graph.gz", False), ("graph.bz2", False), ("graph.xz", False), ("graph.lzma", False),
    ])
    def test_numpy_reads_a_plain_name_by_its_path(self, tmp_path, monkeypatch, name, by_path):
        # numpy reads a path in chunks and a handle line by line, but given
        # the path it would decompress a file by these suffixes
        real, seen = np.loadtxt, []

        def loadtxt(fname, dtype, ndmin, encoding=None):
            seen.append((fname, encoding))
            return real(fname, dtype=dtype, ndmin=ndmin, encoding=encoding)

        monkeypatch.setattr(np, "loadtxt", loadtxt)
        monkeypatch.chdir(tmp_path)
        (tmp_path / name).write_text("0 1 0.5\n1 2 0.25\n")
        assert arc_list(load_edge_list(name)) == [(0, 1, 0.5), (1, 2, 0.25)]
        assert len(seen) == 2  # two fields per line, then three
        for fname, encoding in seen:
            if by_path:
                assert (fname, encoding) == (os.path.join(os.getcwd(), name), "utf-8")
            else:
                assert hasattr(fname, "read") and encoding is None

    def test_missing_file_beside_a_compressed_one(self, tmp_path):
        # numpy, given the missing path, would read <path>.gz instead
        path = tmp_path / "graph.txt"
        with gzip.open(f"{path}.gz", "wt") as fh:
            fh.write("0 1\n1 2\n")
        with pytest.raises(FileNotFoundError):
            load_edge_list(path)

    @pytest.mark.parametrize("text", [
        "0 1 0.5\n1 2 0.5\n2 0 0.5\n", "0 1\n1 2\n", "0 1\n1 2\n0 1\n", "0 1\n1 2#x\n",
        "0 1\n2 3\n# c\n1 0\n2 3 1\n", "# c\n",
    ])
    def test_pipe_is_read_once(self, tmp_path, text):
        # a pipe gives its text to the first reader only; reading it again,
        # the loader once found no arcs and reported an empty edge list
        plain = write(tmp_path, text)
        try:
            expected = arc_list(load_edge_list(plain, symmetrize=True))
        except ValueError as exc:
            expected = str(exc).replace(str(plain), "{path}")
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as fh:
            fh.write(text)
        path = f"/dev/fd/{read_end}"
        try:
            got = arc_list(load_edge_list(path, symmetrize=True))
        except ValueError as exc:
            got = str(exc).replace(path, "{path}")
        finally:
            os.close(read_end)
        assert got == expected

    def test_fifo_is_read_once(self, tmp_path):
        # a second open of a FIFO waits for another writer, so a loader
        # that reopened it hung
        fifo = tmp_path / "graph.fifo"
        os.mkfifo(fifo)
        loaded = []

        def feed():
            with open(fifo, "w") as fh:
                fh.write("0 1\n1 2\n2 0\n")

        threads = [threading.Thread(target=target, daemon=True)
                   for target in (feed, lambda: loaded.append(load_edge_list(fifo)))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert [arc_list(topo) for topo in loaded] == [[(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)]]

    @pytest.mark.parametrize("text", [
        "0 1\n1 2\n", "0 1 0.5\n1 2 0.25\n", "# c\n", "0 1\n0 1\n", "0 1\n1 x\n",
    ])
    def test_numpy_read_that_warns_is_not_used(self, tmp_path, monkeypatch, text):
        # numpy 1.x reads an id such as 3.0 with a DeprecationWarning, and
        # every numpy warns on a file without arcs
        def loadtxt(fname, dtype, ndmin, encoding=None):
            warnings.warn("read with a warning", DeprecationWarning)
            return np.zeros(3, dtype=dtype)

        path = write(tmp_path, text)
        try:
            expected = loop_load_edge_list(path)
        except ValueError as exc:
            expected = str(exc)
        monkeypatch.setattr(np, "loadtxt", loadtxt)
        try:
            topo = load_edge_list(path)
        except ValueError as exc:
            assert str(exc) == expected
        else:
            assert (topo.n, topo.src.tolist(), topo.dst.tolist(), topo.weight.tolist()) == (
                expected[0], *(arr.tolist() for arr in expected[1:]))

    def test_numpy_read_without_arcs_is_not_used(self, tmp_path, monkeypatch):
        # should a numpy version return no rows without a warning
        monkeypatch.setattr(np, "loadtxt",
                            lambda fname, dtype, ndmin, encoding=None: np.zeros(0, dtype=dtype))
        path = write(tmp_path, "# src dst\n")
        with pytest.raises(ValueError) as exc:
            load_edge_list(path)
        assert str(exc.value) == f"{path}: no nodes (empty edge list)"

    def test_load_save_load_idempotent(self, tmp_path):
        first = load_edge_list(write(tmp_path, "0 1 0.5\n1 2 -0.25\n2 0 0.1\n"))
        out = tmp_path / "roundtrip.txt"
        save_edge_list(first, out)
        second = load_edge_list(out)
        assert second.n == first.n
        assert arc_list(second) == arc_list(first)


def load_outcome(path, symmetrize):
    """(n, and each array's dtype and bytes) of a loaded file, or its
    error's type and message with the path written as {path}."""
    try:
        topo = load_edge_list(path, symmetrize)
    except ValueError as exc:
        return type(exc), str(exc).replace(str(path), "{path}")
    return topo.n, *((arr.dtype, arr.tobytes()) for arr in (topo.src, topo.dst, topo.weight))


def through_fifo(fifo, data: bytes, read):
    """``read(fifo)`` while another thread writes ``data`` into the FIFO;
    both run in threads with a timeout, as a FIFO's open waits for its
    other end."""
    got = []
    threads = [threading.Thread(target=target, daemon=True)
               for target in (lambda: fifo.write_bytes(data), lambda: got.append(read(fifo)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    return got[0]


class TestSingleRead:
    """The loader reads its file once, as one text, and words every error
    from that text as a text-mode read of the file would."""

    def test_invalid_utf8_past_64k_reported_before_a_malformed_line(self, tmp_path):
        # a malformed line and a duplicate come first; the error gives the
        # bad byte's position in the whole file, not in a read chunk
        head = b"0 x\n0 1\n0 1\n" + "".join(f"{i} {i + 1}\n" for i in range(20_000)).encode()
        assert len(head) > 65_536
        path = tmp_path / "graph.txt"
        path.write_bytes(head + b"0 1 \xff\n")
        with pytest.raises(UnicodeDecodeError) as exc:
            load_edge_list(path)
        assert (exc.value.start, exc.value.end) == (len(head) + 4, len(head) + 5)

    @pytest.mark.parametrize("data, symmetrize, message", [
        (b"0 1\r1 2\r0 1\r", False, "line 3: duplicate edge (0, 1)"),
        (b"0 1\r\n1 2\r0 1\n", False, "line 3: duplicate edge (0, 1)"),
        # "\r\r\n" ends two lines, "\n\r" two more
        (b"0 1\r\r\n1 2\n\r0 1", False, "line 5: duplicate edge (0, 1)"),
        (b"0 1\r2 3\r\n1 0\r", True, "line 3: duplicate edge (1, 0)"),
        (b"0 1\r\n\r1 x\n", False, "line 3: could not parse '1 x'"),
        (b"# c\r0 1 0.5\r\n1 2\n2 x\r", False, "line 4: could not parse '2 x'"),
        (b"0 1\n\r\n1 2 3 4\r", False, "line 3: expected 'src dst [weight]', got '1 2 3 4'"),
    ])
    def test_bare_and_mixed_line_endings_number_lines_as_text_mode(
            self, tmp_path, data, symmetrize, message):
        path = tmp_path / "graph.txt"
        path.write_bytes(data)
        with pytest.raises(ValueError) as exc:
            load_edge_list(path, symmetrize=symmetrize)
        assert str(exc.value) == f"{path}: {message}"

    def test_one_open_per_load(self, tmp_path, monkeypatch):
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(model, "open", spy, raising=False)
        # numpy reads in bulk, reads with a duplicate, cannot read, reads an
        # inline '#'; under a plain name and a compressed suffix
        for text in ("0 1\n1 2\n", "0 1\n1 2\n0 1\n", "0 1\n1 2 0.5\n", "0 1\n1 2#x\n"):
            for name in ("graph.txt", "graph.gz"):
                path = tmp_path / name
                path.write_text(text)
                calls.clear()
                load_outcome(path, symmetrize=False)
                assert calls == [path]
        if not hasattr(os, "mkfifo"):
            return
        fifo = tmp_path / "graph.fifo"
        os.mkfifo(fifo)
        calls.clear()
        topo = through_fifo(fifo, b"0 1\n1 2\n2 0\n", load_edge_list)
        assert arc_list(topo) == [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)]
        assert calls == [fifo]

    def test_fifo_matches_regular_file_on_random_files(self, tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        fifo = tmp_path / "graph.fifo"
        os.mkfifo(fifo)
        path = tmp_path / "graph.txt"
        rng = random.Random(20181)
        for case in range(200):
            # the corpus of test_matches_loop_oracle_on_random_files
            lines = 12_000 if case in (7, 150) else rng.randint(1, 60)
            data = random_edge_list(
                rng, lines, faults=case == 150 or (case != 7 and rng.random() < 0.6)).encode()
            path.write_bytes(data)
            for symmetrize in (False, True):
                expected = load_outcome(path, symmetrize)
                got = through_fifo(fifo, data, lambda f: load_outcome(f, symmetrize))
                assert got == expected, data


# lines of the kinds an edge-list file mixes, besides well-formed arcs:
# comments and blanks, and malformed lines
COMMENTS = ["# src dst", "   # indented", "#0 1", "\t#", "", "   ", "\t \t"]
MALFORMED = ["0 1#x", "7", "0 1 2 3", "-1 2", "3 -4", "0 x", "0 1 1e", "0 1 1.2.3",
             "1 2 -", "0 1 1e+", "1.0 2", "0 0x1"]
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def random_weight(rng):
    return rng.choice([
        str(rng.randint(-3, 9)), repr(rng.uniform(-1, 1)), f"{rng.uniform(0, 1):.3e}",
        ".5", "5.", "-0", "1E-3", "+0.25", "007",
    ])


def odd_arc_line(rng, i: int, j: int) -> str:
    """Arc (i, j) spelled so that only Python's int() and float() read it."""
    return rng.choice([
        f"+{i} {j}", f"{i} +{j} 0.5", f"{i} {j} inf", f"{i} {j} nan", f"{i} {j} 1_0",
        f"{i}\x0c{j}", f"{i}\x0b{j} -2", str(i).translate(ARABIC_INDIC) + f" {j}",
        f"{i:025d} {j}", f"{i} {j}\xa0",
    ])


def random_edge_list(rng, lines: int, faults: bool) -> str:
    """An edge-list text of about ``lines`` lines of distinct arcs, mostly in
    bulk spellings (leading zeros, tabs, integer and decimal weights), with
    comments, blanks and odd spellings mixed in, plus duplicates and
    malformed lines if ``faults``; random line endings, some files without a
    final newline."""
    n = max(4, int(lines ** 0.5) + 2)
    arcs = rng.sample([(i, j) for i in range(n) for j in range(i, n)], k=min(lines, n * (n + 1) // 2))
    kinds = ["bulk"] * 30 + ["comment"] * 3 + ["odd"] * 3 + ["dup", "bad"] * faults
    out = []
    for i, j in arcs:
        kind = rng.choice(kinds)
        if rng.random() < 0.5:
            i, j = j, i
        if kind == "comment":
            out.append(rng.choice(COMMENTS))
        elif kind == "odd":
            out.append(odd_arc_line(rng, i, j))
        elif kind == "bad":
            out.append(rng.choice(MALFORMED))
        elif kind == "dup" and out:
            out.append(rng.choice(out))
        else:
            fields = ["0" * rng.randint(0, 2) + str(i), str(j)]
            if rng.random() < 0.5:
                fields.append(random_weight(rng))
            line = rng.choice([" ", "\t", "  ", " \t"]).join(fields)
            out.append(rng.choice(["", " ", "\t"]) + line + rng.choice(["", " ", "\t "]))
    ending = rng.choice(["\n", "\r\n", "\r", None])
    text = "".join(line + (ending or rng.choice(["\n", "\r\n", "\r"])) for line in out)
    return text[:-1] if rng.random() < 0.2 else text


def random_arcs(rng, n, m):
    """m distinct (src, dst, weight) arcs in random order."""
    keys = rng.choice(n * n, size=m, replace=False)
    return [(int(k // n), int(k % n), float(rng.normal())) for k in keys]


def arc_topology(n, edges):
    """A Topology of (src, dst, weight) triples, its ids as integer columns."""
    src, dst, weight = zip(*edges) if edges else ((), (), ())
    return Topology(n, src, dst, weight)


class TestNetworkBuild:
    def test_matches_loop_oracle_on_random_arc_lists(self):
        rng = np.random.default_rng(191)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            edges = random_arcs(rng, n, int(rng.integers(0, n * n + 1)))
            want = loop_build_weights(n, edges)
            for source in (edges, arc_topology(n, edges)):
                got = Network.build(n, source).weights
                for name in ("indptr", "indices", "data"):
                    a, b = getattr(got, name), getattr(want, name)
                    assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_matches_loop_oracle_on_20k_arcs(self):
        rng = np.random.default_rng(211)
        n = 3000
        edges = random_arcs(rng, n, 20_000)
        edges[::97] = [(i, j, 0.0) for i, j, _ in edges[::97]]
        want = loop_build_weights(n, edges)
        for source in (edges, arc_topology(n, edges)):
            got = Network.build(n, source).weights
            assert got.has_canonical_format
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    @pytest.mark.parametrize("edges, repeat", [
        ([(0, 1, 0.0), (1, 2, 0.5), (0, 1, 0.0)], (0, 1)),
        ([(2, 2, -0.0), (0, 1, 0.25), (2, 2, 0.0), (1, 0, 0.1)], (2, 2)),
        ([(1, 0, 0.5), (1, 0, -0.5)], (1, 0)),
    ])
    def test_zero_weight_duplicates_rejected(self, edges, repeat):
        # repeats that sum to zero still leave one entry fewer than arcs
        with pytest.raises(ValueError) as exc:
            Network.build(3, edges)
        assert str(exc.value) == f"duplicate edge {repeat}"

    def test_explicit_zero_weights_kept(self):
        weights = Network.build(3, [(1, 2, 0.0), (0, 1, 0.5), (1, 0, -0.0), (2, 2, 0.0)]).weights
        assert weights.nnz == 4
        assert weights.indptr.tolist() == [0, 1, 3, 4]
        assert weights.indices.tolist() == [1, 0, 2, 2]
        assert weights.data.tolist() == [0.5, 0.0, 0.0, 0.0]
        assert np.signbit(weights.data).tolist() == [False, True, False, False]

    def test_weights_in_canonical_format(self):
        rng = np.random.default_rng(223)
        for n in (1, 2, 7, 40):
            for edges in ([], random_arcs(rng, n, int(rng.integers(1, n * n + 1)))):
                weights = Network.build(n, edges).weights
                assert weights.has_canonical_format
                assert weights.shape == (n, n) and weights.nnz == len(edges)
                assert not weights.data.flags.writeable

    def test_row_abs_sums_match_scipy(self):
        # the reduction scipy's sum(axis=1) runs, bitwise, with empty rows
        # and signed weights
        rng = np.random.default_rng(229)
        for n in (1, 3, 40, 300):
            for m in (0, n // 2, n * n // 3):
                edges = random_arcs(rng, n, m)
                net = Network.build(n, edges)
                want = np.abs(net.weights).sum(axis=1)
                assert net.row_abs_sums.tobytes() == want.tobytes()
                assert not net.row_abs_sums.flags.writeable

    def test_int64_indices_where_int32_cannot_hold_them(self, monkeypatch):
        # beyond 2^31 - 1 nodes or arcs scipy needs int64 indices; a lowered
        # limit takes that branch on three nodes and three arcs
        edges = [(0, 1, 0.5), (1, 2, -0.25), (2, 0, 0.125)]
        want = Network.build(3, edges).weights
        for limit in (2, 3):
            monkeypatch.setattr(model, "_INT32_MAX", limit)
            got = Network.build(3, edges).weights
            ids = np.int32 if limit == 3 else np.int64
            assert got.indptr.dtype == got.indices.dtype == ids
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_errors_match_loop_oracle(self):
        # an injected duplicate and/or out-of-range arc: the first arc out of
        # range is reported, or else the first repeat, with the loop's message
        rng = np.random.default_rng(193)
        for trial in range(60):
            n = int(rng.integers(1, 20))
            edges = random_arcs(rng, n, int(rng.integers(1, n * n + 1)))
            if trial % 3 != 1:
                at = int(rng.integers(1, len(edges) + 1))
                edges.insert(at, edges[int(rng.integers(0, at))][:2] + (0.5,))
            if trial % 3 != 0:
                ends = [int(rng.integers(0, n)), int(rng.choice([-1, n, n + 3]))]
                rng.shuffle(ends)
                edges.insert(int(rng.integers(0, len(edges) + 1)), (*ends, 0.1))
            with pytest.raises(ValueError) as want:
                loop_build_weights(n, edges)
            with pytest.raises(ValueError) as got:
                Network.build(n, edges)
            assert str(got.value) == str(want.value)

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Network.build(2, [(0, 1, 0.1), (0, 1, 0.2)])

    def test_out_of_range_edge(self):
        with pytest.raises(ValueError, match="out of range"):
            Network.build(2, [(0, 2, 0.1)])

    def test_out_of_range_reported_before_an_earlier_repeat(self):
        # as in load_edge_list: every bad id before any repeat
        with pytest.raises(ValueError) as exc:
            Network.build(3, [(0, 1, .5), (0, 1, .5), (0, 3, .5)])
        assert str(exc.value) == "edge (0, 3) out of range for n=3"

    def test_topology_on_another_node_count_refused(self):
        with pytest.raises(ValueError) as exc:
            Network.build(5, Topology(3, [0], [1], [0.5]))
        assert str(exc.value) == "topology has n=3, not n=5"

    def test_vectors_are_read_only(self):
        net = Network.build(2, [(0, 1, 0.5)], w0=0.2)
        with pytest.raises(ValueError):
            net.w0[0] = 0.9

    def test_scalar_broadcast(self):
        net = Network.build(3, w0=0.25)
        assert net.w0.tolist() == [0.25, 0.25, 0.25]


class TestTrustedTopology:
    """The topologies the package has checked already come from one
    constructor, which skips the checks of ``Topology(...)``."""

    @staticmethod
    def made_topologies(tmp_path, monkeypatch):
        made = []
        trusted = Topology._trusted.__func__

        def spy(cls, *args):
            made.append(trusted(cls, *args))
            return made[-1]

        monkeypatch.setattr(Topology, "_trusted", classmethod(spy))
        for text, symmetrize in (("0 1\n1 2\n2 0\n", False), ("0 1 0.5\n1 2 0.25\n", True),
                                 ("0 1\n+1 2 0.5\n3 0\n", False)):
            load_edge_list(write(tmp_path, text), symmetrize)
        for topo in made[:3]:
            generate_weights(topo, 0.3).topology()
        assert len(made) == 9  # three loads, each weighted once and read back
        return made

    def test_read_only_contiguous_arrays(self, tmp_path, monkeypatch):
        for topo in self.made_topologies(tmp_path, monkeypatch):
            for arr, dtype in ((topo.src, np.int64), (topo.dst, np.int64), (topo.weight, np.float64)):
                assert arr.dtype == dtype
                assert arr.flags.c_contiguous and not arr.flags.writeable

    def test_build_matches_checked_topology(self, tmp_path, monkeypatch):
        for topo in self.made_topologies(tmp_path, monkeypatch):
            checked = Topology(topo.n, topo.src.copy(), topo.dst.copy(), topo.weight.copy())
            got, want = Network.build(topo.n, topo).weights, Network.build(topo.n, checked).weights
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_topology_shares_no_array_with_its_network(self, monkeypatch):
        # with int64 indices, scipy's tocoo hands back w's own column ids
        monkeypatch.setattr(model, "_INT32_MAX", 2)
        net = Network.build(3, [(0, 1, 0.5), (1, 2, 0.25)])
        topo, w = net.topology(), net.weights
        assert w.indices.dtype == np.int64 and w.indices.flags.writeable
        for arr in (topo.src, topo.dst, topo.weight):
            assert not any(np.shares_memory(arr, part) for part in (w.indptr, w.indices, w.data))


class TestIntegerIds:
    # ids were cast with np.array(..., dtype=np.int64), which truncated
    # floats and wrapped ids of 2**63 or more; Network.build parsed triples
    # through a float array of its own, so (0.7, 1, w) built arc (0, 1)
    MESSAGE = "{} must hold integer node ids that fit int64"

    @pytest.mark.parametrize("name", ["src", "dst"])
    @pytest.mark.parametrize("ids", [
        [0.5], [1.0], [float("nan")], [np.uint64(2**63)], [2**64],
    ])
    def test_topology_refuses_non_integer_ids(self, name, ids):
        arcs = {"src": [0], "dst": [1], "weight": [0.5], name: ids}
        with pytest.raises(ValueError) as exc:
            Topology(3, **arcs)
        assert str(exc.value) == self.MESSAGE.format(name)

    @pytest.mark.parametrize("src, dst, arc", [([-1], [0], (-1, 0)), ([0], [3], (0, 3))])
    def test_topology_refuses_ids_out_of_range(self, src, dst, arc):
        with pytest.raises(ValueError) as exc:
            Topology(3, src, dst, [0.0])
        assert str(exc.value) == f"edge {arc} out of range for n=3"

    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64, np.uint8, np.uint64])
    def test_topology_takes_integer_dtypes(self, dtype):
        topo = Topology(3, np.array([0, 2], dtype=dtype), np.array([1, 2], dtype=dtype), [0.5, 1])
        assert topo.src.dtype == topo.dst.dtype == np.int64
        assert arc_list(topo) == [(0, 1, 0.5), (2, 2, 1.0)]

    def test_topology_takes_the_largest_id_and_no_ids(self):
        big = np.array([2**63 - 1], dtype=np.uint64)
        assert Topology(2**63, big, big, [0.0]).src.tolist() == [2**63 - 1]
        empty = Topology(3, [], [], [])
        assert empty.src.dtype == empty.dst.dtype == np.int64 and empty.src.size == 0

    @pytest.mark.parametrize("edges, name", [
        ([(0.7, 1, 0.3), (1, 2.9, 0.2)], "src"),
        ([(0, 1, 0.3), (1, 2.9, 0.2)], "dst"),
        ([(float("nan"), 1, 0.3)], "src"),
        ([(0, 1, 0.3), (1, float("nan"), 0.2)], "dst"),
        ([(2**63, 1, 0.3)], "src"),
        ([(0, 1, 0.3), (1, 2**63, 0.2)], "dst"),
    ])
    def test_build_refuses_non_integer_ids(self, edges, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                Network.build(3, edges)
        assert str(exc.value) == self.MESSAGE.format(name)

    def test_build_refuses_an_arc_that_is_no_triple(self):
        with pytest.raises(ValueError) as exc:
            Network.build(3, [(0, 1, 0.5), (1, 2)])
        assert str(exc.value) == "edges must be (src, dst, weight) triples, got (1, 2)"

    def test_ragged_arc_refused_as_no_triple(self):
        with pytest.raises(ValueError) as exc:
            Network.build(3, [(0, (1, 2), 0.5)])
        assert str(exc.value) == "edges must be (src, dst, weight) triples, got (0, (1, 2), 0.5)"

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_numpy_integer_ids_build_the_same_matrix(self, dtype):
        edges = random_arcs(np.random.default_rng(227), 9, 40)
        want = Network.build(9, edges).weights
        typed = [(dtype(i), dtype(j), w) for i, j, w in edges]
        for source in (typed, arc_topology(9, typed)):
            got = Network.build(9, source).weights
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


class TestValidate:
    def test_exactly_saturated_node_is_ok(self):
        net = Network.build(1, [(0, 0, 0.5)], w0=0.4, wg=0.05, wb=0.05)
        assert validate(net) == []

    def test_unit_self_weight_violates_row_sum(self):
        net = Network.build(1, [(0, 0, 1.0)])
        messages = [v.message for v in validate(net)]
        assert any("not strictly below 1" in m for m in messages)
        assert all(v.node == 0 for v in validate(net))

    def test_total_mass_above_one(self):
        net = Network.build(1, [(0, 0, 0.5)], w0=0.4, wg=0.2, wb=0.05)
        assert any("exceeds 1" in v.message for v in validate(net))

    def test_dependency_rejects_negative_edge(self):
        net = Network.build(2, [(0, 1, -0.1)], w0=0.1)
        assert validate(net, "fixed") == []
        dep = validate(net, "dependency")
        assert any("negative weight" in v.message and v.node == 0 for v in dep)

    def test_dependency_negative_edges_reported_in_row_order(self):
        net = Network.build(3, [(2, 0, -0.25), (1, 2, 0.3), (0, 1, -0.1)], w0=0.1)
        assert [str(v) for v in validate(net, "dependency")] == [
            "node 0: negative weight -0.1 on edge (0, 1) in dependency mode",
            "node 2: negative weight -0.25 on edge (2, 0) in dependency mode",
        ]

    def test_dependency_extra_checks(self):
        net = Network.build(2, [(0, 1, 0.2)], w0=[-0.1, 0.0], v0=[0.0, 1.5], theta=[0.1, -0.2])
        messages = [v.message for v in validate(net, "dependency")]
        assert any("negative bias weight" in m for m in messages)
        assert any("outside [-1, 1]" in m for m in messages)
        assert any("negative camp total" in m for m in messages)

    def test_bad_mode_rejected(self):
        net = Network.build(1)
        with pytest.raises(ValueError):
            validate(net, "other")
        with pytest.raises(ValueError, match=r"^mode must be 'fixed' or 'dependency', got 'both'$"):
            validate(net, "both")

    def test_valid_networks_have_decaying_powers(self):
        # admissible rows keep the spectral radius below 1, so repeatedly
        # applying the weight matrix must shrink any vector
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 30))
            net = random_network(rng, n, nonneg=bool(rng.integers(0, 2)))
            assert validate(net) == []
            vec = rng.uniform(-1.0, 1.0, n)
            for _ in range(60):
                vec = net.weights @ vec
            assert np.max(np.abs(vec)) < 1e-3


class TestBudgetsAndPlans:
    def test_budgets_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Budgets(-1.0, 2.0)
        with pytest.raises(ValueError):
            Budgets(1.0, float("nan"))

    def test_plan_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="negative"):
            InvestmentPlan("good", [-0.1, 0.0], [0.0, 0.0])

    def test_plan_rejects_unknown_camp(self):
        with pytest.raises(ValueError, match="camp"):
            InvestmentPlan("ugly", [0.0], [0.0])

    def test_plan_budget_violations(self):
        plan = InvestmentPlan("good", [1.0, 2.0], [0.5, 0.0])
        assert plan_total(plan) == pytest.approx(3.5)
        assert plan_violations(plan, budget=10.0) == []
        assert any("exceeds budget" in m for m in plan_violations(plan, budget=3.0))
        assert any("per-node cap" in m for m in plan_violations(plan, budget=10.0, cap=1.0))
