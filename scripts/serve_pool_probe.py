#!/usr/bin/env python3
"""Probes how `bed serve`'s worker pool copes with slow and idle clients.

Start a server first, for example

    bed generate --dataset olympics --n 30000 --out s.tsv
    bed serve --input s.tsv --universe 864 --addr 127.0.0.1:9301

then run one of

    python3 scripts/serve_pool_probe.py stall PORT SECONDS K
        K threads each keep one silent connection open, reconnecting
        whenever the server closes it, while 2 threads run a closed loop
        of /query requests for SECONDS. Prints the number of answers, the
        p50 and p99 latency of the 200s, and the share of 503s.

    python3 scripts/serve_pool_probe.py flood PORT N
        Opens N idle connections, then retries /query every 10 ms until
        one answers 200. Prints the time to that 200, the 503s seen on the
        way and the slowest single answer.

Only the standard library is used. Latencies include the Python client's
own overhead, so compare them across server builds, not with bedbench.
"""
import socket
import sys
import threading
import time

QUERY = (b"GET /query?kind=point&event=0&t=1814400&tau=86400 HTTP/1.1\r\n"
         b"Host: probe\r\nConnection: close\r\n\r\n")


def fetch(addr):
    """One /query on a fresh connection; returns the status code as text."""
    s = socket.create_connection(addr, timeout=3)
    s.sendall(QUERY)
    buf = b""
    while True:
        b = s.recv(65536)
        if not b:
            break
        buf += b
    s.close()
    return buf.split(b" ", 2)[1].decode() if buf else "EMPTY"


def stall(addr, secs, k):
    stop = time.time() + secs

    def staller():
        while time.time() < stop:
            try:
                s = socket.create_connection(addr, timeout=3)
                s.settimeout(max(0.05, stop - time.time()))
                try:
                    while s.recv(1024):
                        pass
                except OSError:
                    pass
                s.close()
            except OSError:
                time.sleep(0.01)

    lat, codes, lock = [], {}, threading.Lock()

    def client():
        while time.time() < stop:
            t0 = time.perf_counter()
            try:
                c = fetch(addr)
            except OSError as e:
                c = type(e).__name__
            dt = (time.perf_counter() - t0) * 1e3
            with lock:
                codes[c] = codes.get(c, 0) + 1
                if c == "200":
                    lat.append(dt)

    stallers = [threading.Thread(target=staller) for _ in range(k)]
    for t in stallers:
        t.start()
    time.sleep(0.3)
    clients = [threading.Thread(target=client) for _ in range(2)]
    for t in clients:
        t.start()
    for t in stallers + clients:
        t.join()
    lat.sort()
    n = sum(codes.values())

    def pct(p):
        return lat[min(len(lat) - 1, int(p * len(lat)))] if lat else float("nan")

    other = n - codes.get("200", 0) - codes.get("503", 0)
    print(f"answers={n} p50_ms={pct(0.5):.3f} p99_ms={pct(0.99):.3f} "
          f"share_503={codes.get('503', 0) / max(n, 1):.3f} other={other}")


def flood(addr, n):
    idle = [socket.create_connection(addr, timeout=3) for _ in range(n)]
    t0 = time.perf_counter()
    n503, slowest, first_ok = 0, 0.0, None
    while first_ok is None and time.perf_counter() - t0 < 3:
        a = time.perf_counter()
        try:
            c = fetch(addr)
        except OSError as e:
            c = type(e).__name__
        slowest = max(slowest, time.perf_counter() - a)
        if c == "200":
            first_ok = time.perf_counter() - t0
        else:
            n503 += c == "503"
            time.sleep(0.01)
    first = f"{first_ok * 1e3:.0f}" if first_ok is not None else "none"
    print(f"first_200_ms={first} n503={n503} slowest_answer_ms={slowest * 1e3:.0f}")
    for s in idle:
        s.close()


if __name__ == "__main__":
    mode, port = sys.argv[1], int(sys.argv[2])
    addr = ("127.0.0.1", port)
    if mode == "stall":
        stall(addr, float(sys.argv[3]), int(sys.argv[4]))
    elif mode == "flood":
        flood(addr, int(sys.argv[3]))
    else:
        sys.exit(f"unknown mode {mode!r}; use stall or flood")
