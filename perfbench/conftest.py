"""Make the checkout's `src/` importable for the benchmark's own tests."""

import run

run.load_program()
