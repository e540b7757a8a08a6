// Command edged runs a semantic edge-server daemon: it boots the full
// two-edge semantic communication system (general models pretrained at
// startup) as one member of an edge mesh and serves transmit/move/stats
// requests over a length-prefixed TCP protocol of binary frames, model
// parameters carried raw in mesh frames (see internal/rpc).
//
// Connections dispatch directly into the concurrent core.System: requests
// from different users run in parallel, bounded by the -max-inflight gate;
// requests from one user serialize inside the system. Requests that queue
// at the gate longer than -shed-after (or their own deadline hint) are
// shed with an error instead of served late.
//
// With -pprof addr a net/http/pprof endpoint runs on a side port; adding
// -profile-contention also records mutex and block profiles there
// (runtime.SetMutexProfileFraction/SetBlockProfileRate), which is how
// serve-path lock contention is measured under live load.
//
// There is one deployment. With -peers a,b,c -mesh-index i this daemon is
// member i of a multi-node edge mesh; without -peers it is node-0 of a
// mesh of one at -addr, the same code with nobody to cooperate with.
// Clients hash each user to a member over a consistent-hash ring, the
// "move" op relocates a user to a radio cell (handing their personalized
// models to the member serving it), members resolve cache misses from
// their neighbors before paying the cloud origin, probe one another's
// liveness, and "stats" reports each member's slice of the counters.
// Every member draws channel noise per (user, message sequence), so a
// user's responses do not depend on which member serves them or on what
// else is in flight. Members cooperate over the rpc mesh ops; see
// internal/mesh. For all members on one machine, `semload -mesh a,b,c
// -spawn` starts them.
//
// Usage:
//
//	edged [-addr :7060] [-selector sticky] [-snr 12] [-seed 1] [-max-inflight 16]
//	edged -addr :7060 -peers host0:7060,host1:7060,host2:7060 -mesh-index 0 ...
//
// All daemon logic lives in internal/edged; this shell parses flags and
// wires signals.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/edged"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.Fatalf("edged: %v", err)
	}
}

func run() error {
	cfg := edged.FromFlags(flag.CommandLine)
	flag.Parse()
	d, err := edged.New(*cfg)
	if err != nil {
		return err
	}
	if err := d.Listen(); err != nil {
		return err
	}
	// First SIGINT/SIGTERM starts a graceful drain (bounded by
	// -drain-timeout); a second one during a stuck drain forces an
	// immediate crash-stop instead of being dropped on the floor — the
	// channel holds two signals so the force path can never be missed.
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	drainStarted := make(chan struct{})
	drainDone := make(chan struct{})
	var drainErr error
	go func() {
		<-sigCh
		log.Print("edged: shutting down (signal again to force)")
		close(drainStarted)
		go func() {
			defer close(drainDone)
			drainErr = d.Drain()
		}()
		<-sigCh
		log.Print("edged: second signal, forcing shutdown")
		d.Kill()
		os.Exit(1)
	}()
	d.Mesh.Start()
	err = d.Serve()
	// Serve returns once the listener closes, which mid-drain happens
	// before the handoff completes; wait the drain out so the process
	// exits with every owned model and user safely pushed, and fail if
	// it could not hand them off.
	select {
	case <-drainStarted:
		<-drainDone
		if drainErr != nil {
			return fmt.Errorf("drain: %w", drainErr)
		}
	default:
	}
	return err
}
