package edged

import (
	"errors"
	"fmt"
	"net"

	"repro/internal/rpc"
)

// Cluster is a mesh whose members all run in this process, each a daemon
// on its own listener. Members and Addrs are indexed by ring index.
type Cluster struct {
	Members []*Daemon
	Addrs   []string

	lns    []net.Listener  // every listener StartCluster bound
	errs   []error         // member i's Serve error, set before exited[i] closes
	exited []chan struct{} // closed when member i's Serve returns
}

// StartCluster boots an n-member mesh in this process. It binds n
// listeners on addr ("mem:" or a TCP address, rpc.Listen), then builds
// members n-1 down to 0 with build(i, members), members[j] being node-j
// at the j-th address, and serves each once built, on its listener or on
// wrap(i, listener) when wrap is non-nil. Member 0 comes last: New warms
// its sender, and a miss probing a bound but unserved peer would wait out
// the call timeout. A failed build stops everything before it returns.
func StartCluster(n int, addr string, build func(i int, members []rpc.PeerInfo) (*Daemon, error), wrap func(i int, ln net.Listener) net.Listener) (*Cluster, error) {
	c := &Cluster{Members: make([]*Daemon, n), Addrs: make([]string, n), errs: make([]error, n), exited: make([]chan struct{}, n)}
	members := make([]rpc.PeerInfo, n)
	for i := range members {
		ln, err := rpc.Listen(addr)
		if err != nil {
			return nil, errors.Join(err, c.Stop())
		}
		c.lns = append(c.lns, ln)
		c.Addrs[i] = ln.Addr().String()
		members[i] = rpc.PeerInfo{Name: fmt.Sprintf("node-%d", i), Index: i, Addr: c.Addrs[i]}
	}
	for i := n - 1; i >= 0; i-- {
		d, err := build(i, members)
		if err != nil {
			return nil, errors.Join(fmt.Errorf("edged: build %s: %w", members[i].Name, err), c.Stop())
		}
		if d.ln = c.lns[i]; wrap != nil {
			d.ln = wrap(i, d.ln)
		}
		c.Members[i], c.exited[i] = d, make(chan struct{})
		go func() {
			defer close(c.exited[i])
			if err := d.Serve(); err != nil {
				c.errs[i] = fmt.Errorf("edged: %s: %w", members[i].Name, err)
			}
		}()
	}
	return c, nil
}

// Stop tears the cluster down as a crash would: it kills every member,
// closes every listener StartCluster bound (also one a wrap replaced,
// which the member's own Kill never reaches), waits for every Serve and
// returns their errors.
func (c *Cluster) Stop() error {
	for i, ln := range c.lns {
		if d := c.Members[i]; d != nil {
			d.Kill()
		}
		ln.Close()
	}
	for _, exited := range c.exited {
		if exited != nil {
			<-exited
		}
	}
	return errors.Join(c.errs...)
}
