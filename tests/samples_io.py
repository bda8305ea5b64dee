"""Writes sample sets in the CSV layout that ``reconstruct.load_samples``
and ``regusamp reconstruct --samples`` read."""


def save_samples(ss, path) -> None:
    """Write the samples of ``ss`` as CSV with header ``index,value``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("index,value\n")
        for ell, val in zip(range(ss.index_lo, ss.index_hi + 1), ss.values):
            fh.write(f"{ell},{val:.17g}\n")
