package main

import (
	"net"
	"sync/atomic"
	"time"
)

// wireCounter totals what the loopback shard workers' connections carry.
// Reads on a worker connection are coordinator→worker bytes, writes are
// worker→coordinator bytes. Busy time is the worker-side gap between the
// last read of a request and the first write of its reply: decoding,
// computing and encoding on the worker.
type wireCounter struct {
	in     atomic.Int64 // bytes the workers read
	out    atomic.Int64 // bytes the workers wrote
	busyNs atomic.Int64
}

// wireSnap is a point-in-time copy of a wireCounter.
type wireSnap struct{ in, out, busyNs int64 }

func (c *wireCounter) snap() wireSnap {
	if c == nil {
		return wireSnap{}
	}
	return wireSnap{c.in.Load(), c.out.Load(), c.busyNs.Load()}
}

type countingListener struct {
	net.Listener
	c *wireCounter
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, c: l.c}, nil
}

// countingConn is used by one worker session goroutine at a time, so its
// own fields need no synchronisation; the shared totals are atomic.
type countingConn struct {
	net.Conn
	c        *wireCounter
	lastRead time.Time
	replying bool
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.c.in.Add(int64(n))
		c.lastRead = time.Now()
		c.replying = false
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if !c.replying && !c.lastRead.IsZero() {
		c.c.busyNs.Add(time.Since(c.lastRead).Nanoseconds())
		c.replying = true
	}
	n, err := c.Conn.Write(p)
	c.c.out.Add(int64(n))
	return n, err
}
