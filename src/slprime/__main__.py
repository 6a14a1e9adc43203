"""`python -m slprime`, and the installed `slprime` script: run `slprime.cli` as a program.

Run as `__main__`, cli imports each layer in the handler that calls it, so
a command loads only the layers it runs; `import slprime.cli` binds every
layer at once (see cli.py).
"""

import runpy


def main() -> None:
    runpy.run_module("slprime.cli", run_name="__main__")


if __name__ == "__main__":
    main()
