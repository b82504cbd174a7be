#!/usr/bin/env python3
"""Inspect an mvflow world snapshot without building the C++ tree.

Parses the MVFLOWCK container (util/serial.hpp): validates magic, version,
payload size and CRC-32, then lists every tagged section with its size, and
decodes the workload + barrier sections (their wire format is simple enough
to mirror here). State sections are opaque layer serializations; for those
it prints size and CRC only.

Usage: snapshot_inspect.py SNAPSHOT [SNAPSHOT...]
Exit codes: 0 all files valid, 2 any file invalid/corrupt.
"""

import struct
import sys
import zlib

MAGIC = b"MVFLOWCK"
VERSION = 5
HEADER = struct.Struct("<8sIIQI")  # magic, version, flags, payload, crc

SECTION_NAMES = {
    0x31474643: "config",
    0x31444B57: "workload",
    0x31525242: "barrier",
    0x31474E45: "engine",
    0x31424146: "fabric",
    0x31564544: "devices",
    0x3154454D: "metrics",
    0x31435254: "trace",
}


class SnapshotError(Exception):
    pass


def parse_sections(blob):
    if len(blob) < HEADER.size:
        raise SnapshotError(
            f"truncated header: {len(blob)} bytes, need {HEADER.size}")
    magic, version, _flags, payload_size, crc = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise SnapshotError(f"bad magic {magic!r} (want {MAGIC!r})")
    if version != VERSION:
        raise SnapshotError(f"unsupported version {version} (want {VERSION})")
    payload = blob[HEADER.size:]
    if len(payload) != payload_size:
        raise SnapshotError(
            f"payload size mismatch: header says {payload_size}, "
            f"file carries {len(payload)}")
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if actual != crc:
        raise SnapshotError(
            f"payload CRC mismatch: stored {crc:08x}, computed {actual:08x}")
    sections = []
    off = 0
    while off < len(payload):
        if off + 12 > len(payload):
            raise SnapshotError(f"section header overruns payload at {off}")
        tag, size = struct.unpack_from("<IQ", payload, off)
        off += 12
        if off + size > len(payload):
            raise SnapshotError(
                f"section 0x{tag:08x} overruns payload "
                f"({size} bytes at offset {off})")
        sections.append((tag, payload[off:off + size]))
        off += size
    return sections


def read_str(buf, off):
    (n,) = struct.unpack_from("<Q", buf, off)
    off += 8
    s = buf[off:off + n].decode("utf-8", "replace")
    return s, off + n


def decode_workload(buf):
    name, off = read_str(buf, 0)
    (nparams,) = struct.unpack_from("<Q", buf, off)
    off += 8
    params = {}
    for _ in range(nparams):
        key, off = read_str(buf, off)
        (val,) = struct.unpack_from("<q", buf, off)
        off += 8
        params[key] = val
    return name, params


def inspect(path):
    with open(path, "rb") as f:
        blob = f.read()
    sections = parse_sections(blob)
    print(f"{path}: {len(blob)} bytes, {len(sections)} sections, CRC OK")
    for tag, body in sections:
        name = SECTION_NAMES.get(tag, f"0x{tag:08x}")
        crc = zlib.crc32(body) & 0xFFFFFFFF
        print(f"  {name:<10} {len(body):>10} bytes  crc {crc:08x}")
        if tag == 0x31444B57:  # workload
            wname, params = decode_workload(body)
            args = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
            print(f"             -> {wname}({args})")
        elif tag == 0x31525242:  # barrier
            (barrier,) = struct.unpack_from("<Q", body, 0)
            print(f"             -> {barrier} executed events")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    status = 0
    for path in argv[1:]:
        try:
            inspect(path)
        except (OSError, SnapshotError, struct.error) as e:
            print(f"{path}: INVALID: {e}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
