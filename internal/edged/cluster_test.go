package edged

import (
	"errors"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/rpc"
)

// TestClusterTeardownClosesEveryListener boots three members. Member 2 is
// served through a wrap that hands its bound listener to a stand-in (as
// the mesh liar test's lyingPeer does) and serves the member on a closed
// listener instead, so the member's own Kill never reaches the bound one.
// Whether the cluster is torn down by Stop or by StartCluster itself,
// when member 1's build fails while members 1 and 0 hold listeners nobody
// serves, no listener may stay open: the stand-in's Accept returns and
// every address is free to bind again.
func TestClusterTeardownClosesEveryListener(t *testing.T) {
	errBuild := errors.New("no such member")
	for name, failAt := range map[string]int{"stop": -1, "build failure": 1} {
		t.Run(name, func(t *testing.T) {
			standIn := make(chan struct{})
			var built []int
			var bound []rpc.PeerInfo
			c, err := StartCluster(3, "mem:", func(i int, members []rpc.PeerInfo) (*Daemon, error) {
				built, bound = append(built, i), members
				if i == failAt {
					return nil, errBuild
				}
				return soakMember(t, i, members)
			}, func(i int, ln net.Listener) net.Listener {
				if i != 2 {
					return ln
				}
				go func() {
					defer close(standIn)
					for conn, err := ln.Accept(); err == nil; conn, err = ln.Accept() {
						conn.Close()
					}
				}()
				unserved, err := rpc.Listen("mem:")
				if err != nil {
					t.Fatal(err)
				}
				unserved.Close()
				return unserved
			})
			switch {
			case failAt < 0 && err == nil:
				if err := c.Stop(); err != nil {
					t.Fatal(err)
				}
			case c != nil || !errors.Is(err, errBuild) || !slices.Equal(built, []int{2, 1}):
				t.Fatalf("StartCluster = %v, %v after building %v; want no cluster, the build's error, and members 2 then 1 built", c, err, built)
			}
			select {
			case <-standIn:
			case <-time.After(5 * time.Second):
				t.Fatal("the wrapped member's bound listener is still open: the stand-in still accepts")
			}
			for _, m := range bound {
				ln, err := rpc.Listen(m.Addr)
				if err != nil {
					t.Fatalf("%s: listener still open: %v", m.Name, err)
				}
				ln.Close()
			}
		})
	}
}
