"""The mutants that mutants/run.py applies, one at a time.

Each entry names a file, an exact snippet of it (found exactly once), the
replacement and the tests that must fail once it is made. An entry with
an "equivalent" reason changes nothing the tests can see and must
survive.
"""

SCHEME = "src/casmat/scheme.py"
ROW_BLOCKS = "tests/test_row_blocks.py"
REFUSALS = "tests/test_count_refusals.py"

MUTANTS = [
    # the row-block walker
    {"name": "blocks skip a row",
     "file": SCHEME,
     "snippet": "    for a in range(0, array.shape[0], rows):\n",
     "replacement": "    for a in range(0, array.shape[0], rows + 1):\n",
     "tests": [f"{ROW_BLOCKS}::test_fiber_scan_gives_the_first_pairs_of_the_fiber",
               "tests/test_verify_cas_blocks.py::test_cas1_cas3_match_the_unblocked_scan"]},
    {"name": "block ignores the row width",
     "file": SCHEME,
     "snippet": "    rows = max(1, entries // max(array.shape[1], 1))\n",
     "replacement": "    rows = max(1, entries)\n",
     "tests": ["tests/test_verify_cas_blocks.py::test_sampled_verify_holds_no_n_by_n_temporary"]},
    {"name": "fiber scan reads every block",
     "file": SCHEME,
     "snippet": "        at += take\n        if at == count:\n            break\n",
     "replacement": "        at += take\n",
     "tests": [f"{ROW_BLOCKS}::test_fiber_scan_stops_at_the_block_of_its_last_pair"]},
    {"name": "fiber scan stops past its count",
     "file": SCHEME,
     "snippet": "        if at == count:\n",
     "replacement": "        if at >= count:\n",
     "tests": [f"{ROW_BLOCKS}::test_fiber_scan_stops_at_the_block_of_its_last_pair"],
     "equivalent": "take never carries at past count"},
    {"name": "fiber scan takes whole blocks",
     "file": SCHEME,
     "snippet": "        take = min(bx.size, count - at)\n",
     "replacement": "        take = bx.size\n",
     "tests": [f"{ROW_BLOCKS}::test_fiber_scan_gives_the_first_pairs_of_the_fiber"]},
    {"name": "range check admits label_count",
     "file": SCHEME,
     "snippet": "if block.min() < 0 or block.max() >= L:",
     "replacement": "if block.min() < 0 or block.max() > L:",
     "tests": [f"{ROW_BLOCKS}::test_an_entry_out_of_range_in_a_late_block_is_refused"]},
    {"name": "range check admits negatives",
     "file": SCHEME,
     "snippet": "if block.min() < 0 or block.max() >= L:",
     "replacement": "if block.max() >= L:",
     "tests": [f"{ROW_BLOCKS}::test_an_entry_out_of_range_in_a_late_block_is_refused"]},
    # refusals of counts and widths
    {"name": "diagonal_slack unchecked",
     "file": SCHEME,
     "snippet": '    _check_count(diagonal_slack, "diagonal_slack", 0)\n',
     "replacement": "",
     "tests": [f"{REFUSALS}::test_verify_cas_refuses_a_bad_diagonal_slack"]},
    {"name": "hat_bump takes a NaN width",
     "file": "src/casmat/bma.py",
     "snippet": "    if not width > 0:\n",
     "replacement": "    if width <= 0:\n",
     "tests": [f"{REFUSALS}::test_hat_bump_refuses_a_width_that_is_not_positive"]},
    {"name": "test_function_count unchecked",
     "file": "src/casmat/hypergroup.py",
     "snippet": '    _check_count(test_function_count, "test_function_count", 1)\n',
     "replacement": "",
     "tests": [f"{REFUSALS}::test_verify_strong_cas_refuses_a_bad_test_function_count"]},
    # the sampler and the byte parse, from earlier hand mutations
    {"name": "sampler finds rows on the left",
     "file": SCHEME,
     "snippet": 'xs = np.searchsorted(ends, ranks, side="right")',
     "replacement": 'xs = np.searchsorted(ends, ranks, side="left")',
     "tests": ["tests/test_verify_cas_touched.py"]},
    {"name": "byte parse shifts the place value",
     "file": SCHEME,
     "snippet": "10 ** place, dtype=value.dtype",
     "replacement": "10 ** (place + 1), dtype=value.dtype",
     "tests": ["tests/test_relation_bytes.py::test_written_files_take_the_byte_parse"]},
]
