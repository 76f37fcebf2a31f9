"""Stand-in encoder for the ingest workload.

Reads the raw input once per preset pass and writes a decimated copy whose
size shrinks as the QP grows, so its run time follows the clip size and the
preset as a real encoder's would, while it holds one chunk in memory.

    python3 standin_encoder.py --preset PRESET --qp QP -o OUTPUT INPUT
"""

import sys

PASSES = {"ultrafast": 1, "medium": 2, "veryslow": 3}
CHUNK = 1 << 20


def main(argv: list[str]) -> int:
    if (len(argv) != 8 or argv[1] != "--preset" or argv[2] not in PASSES
            or argv[3] != "--qp" or argv[5] != "-o"):
        print(__doc__, file=sys.stderr)
        return 64
    passes, step = PASSES[argv[2]], max(1, int(argv[4]) // 4)
    output, source = argv[6], argv[7]
    with open(output, "wb") as dst:
        for n in range(passes):
            with open(source, "rb") as src:
                while chunk := src.read(CHUNK):
                    if n == passes - 1:
                        dst.write(chunk[::step])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
