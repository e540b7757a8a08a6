// Package rpctest holds net.Conn doubles for tests and benchmarks that
// pin how frames reach the socket: how many Read and Write calls a frame
// costs, and that framing survives any segmentation of the byte stream.
package rpctest

import (
	"net"
	"sync/atomic"
)

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
