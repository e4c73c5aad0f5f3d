"""python -m ginlab: the program, cli.run, as the ginlab console script runs it."""

from .cli import run

if __name__ == "__main__":
    run()
