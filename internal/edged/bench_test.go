package edged

import (
	"io"
	"log"
	"net"
	"os"
	"testing"

	"repro/internal/rpc"
	"repro/internal/rpc/rpctest"
)

// countingListener hands the daemon counted connections.
type countingListener struct {
	net.Listener
	accepted chan<- *rpctest.CountingConn
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	counted := &rpctest.CountingConn{Conn: conn}
	l.accepted <- counted
	return counted, nil
}

// BenchmarkWireRoundTrip measures what the wire costs with nothing behind
// it: one rpc.Client pinging a real Daemon over loopback TCP — the
// daemon's own accept, read, dispatch and write loop, with the cheapest
// handler there is. Both ends of the connection are counted, so besides
// ns/op and allocs/op (client and daemon together) it reports how many
// Write and Read calls one round trip puts on the sockets: 2 and 2 when
// every frame leaves in one write and arrives in one read.
func BenchmarkWireRoundTrip(b *testing.B) {
	cfg := defaultConfig(b)
	cfg.KBDir = meshKBDir(b)
	// The daemon logs its boot; inside a benchmark that would land in the
	// middle of the result line.
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	accepted := make(chan *rpctest.CountingConn, 1)
	c, err := StartCluster(1, "127.0.0.1:0", func(_ int, members []rpc.PeerInfo) (*Daemon, error) {
		cfg.Addr = members[0].Addr
		return New(*cfg)
	}, func(_ int, ln net.Listener) net.Listener {
		return countingListener{Listener: ln, accepted: accepted}
	})
	if err != nil {
		b.Fatal(err)
	}
	conn, err := net.Dial("tcp", c.Addrs[0])
	if err != nil {
		b.Fatal(err)
	}
	near := &rpctest.CountingConn{Conn: conn}
	cl := rpc.NewClient(near)
	// One untimed round trip: the connection is accepted and both ends
	// have their buffers.
	if err := cl.Ping(); err != nil {
		b.Fatal(err)
	}
	far := <-accepted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Ping(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	cl.Close()
	// Stop returns once the connection's handler has: the counts are final.
	if err := c.Stop(); err != nil {
		b.Fatal(err)
	}
	trips := float64(b.N + 1)
	b.ReportMetric(float64(near.Writes.Load()+far.Writes.Load())/trips, "writes/op")
	b.ReportMetric(float64(near.Reads.Load()+far.Reads.Load())/trips, "reads/op")
}
