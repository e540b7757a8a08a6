// Package rpctest holds net.Conn doubles for tests and benchmarks that
// pin how frames reach the socket: how many Read and Write calls a frame
// costs, that framing survives any segmentation of the byte stream, and
// what a link that dies mid-frame does to both ends.
package rpctest

import (
	"net"
	"sync/atomic"
)

// CutConn is a link that fails mid-stream: it delivers the first After
// bytes read through it and then closes the connection. The Read that
// reaches the mark returns the bytes up to it; every later Read fails,
// and so does the rest of whatever Write the peer had in flight — a frame
// larger than After arrives cut mid-payload, which is the fault a
// process-level kill cannot place. Wrap the accepting side's connection.
type CutConn struct {
	net.Conn
	After int
}

func (c *CutConn) Read(p []byte) (int, error) {
	if len(p) > c.After {
		p = p[:c.After]
	}
	n, err := c.Conn.Read(p)
	if c.After -= n; c.After == 0 {
		c.Conn.Close()
	}
	return n, err
}

// CountingConn counts the calls that moved bytes on the wrapped
// connection. A Read that returned nothing (EOF, deadline, close) is not
// counted, so a handler parked in its next read does not blur the count.
type CountingConn struct {
	net.Conn
	Reads, Writes atomic.Int64
}

func (c *CountingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.Reads.Add(1)
	}
	return n, err
}

func (c *CountingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.Writes.Add(1)
	}
	return n, err
}

// TrickleConn delivers at most one byte per Read: the worst segmentation
// a stream can show a frame reader, splitting header and payload alike.
type TrickleConn struct {
	net.Conn
}

func (c TrickleConn) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return c.Conn.Read(p)
}
